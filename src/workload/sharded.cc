#include "workload/sharded.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

std::uint64_t
BatchSizes::next(sim::Rng &rng, double mean, double stddev)
{
    if (pos_ == z_.size()) {
        rng.gaussianBatch(0.0, 1.0, z_.data(), z_.size());
        pos_ = 0;
    }
    const double raw = mean + stddev * z_[pos_++];
    return static_cast<std::uint64_t>(std::max(0.0, std::round(raw)));
}

ShardedYcsbGenerator::ShardedYcsbGenerator(const YcsbParams &params,
                                           sim::Rng rng)
    : params_(params), control_(rng)
{
    for (sim::Rng &lane : lanes_) {
        rng.jump();
        lane = rng;
    }
}

void
ShardedYcsbGenerator::drawTick(std::vector<Op> &out, std::size_t at)
{
    // Batch size from the control stream (the one per-tick scalar
    // decision); lanes never see it.
    const auto n = static_cast<std::size_t>(
        sizes_.next(control_, params_.ops_per_tick,
                    params_.ops_per_tick * params_.burstiness));
    const std::uint64_t seq = seq_++;

    out.resize(at + n);
    Op *const ops = out.data() + at;
    forEachBlock(n, seq,
                 [&](std::size_t lane, std::size_t begin, std::size_t end) {
                     drawOps(params_, lanes_[lane], ops + begin,
                             end - begin, words_, jitter_);
                     ops_[lane] += end - begin;
                 });
    generated_ += n;
}

} // namespace smartconf::workload
