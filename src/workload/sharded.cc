#include "workload/sharded.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

std::uint64_t
BatchSizes::next(sim::Rng &control, double mean, double stddev)
{
    if (pos_ == z_.size()) {
        control.gaussianBatch(0.0, 1.0, z_.data(), z_.size());
        pos_ = 0;
    }
    const double raw = mean + stddev * z_[pos_++];
    return static_cast<std::uint64_t>(std::max(0.0, std::round(raw)));
}

ShardedYcsbGenerator::ShardedYcsbGenerator(const YcsbParams &params,
                                           sim::Rng rng)
    : params_(params), plane_(rng)
{}

void
ShardedYcsbGenerator::drawTick(std::vector<Op> &out, std::size_t at)
{
    // Batch size from the control stream (the one per-tick scalar
    // decision); lanes never see it.
    const auto n = static_cast<std::size_t>(
        sizes_.next(plane_.control(), params_.ops_per_tick,
                    params_.ops_per_tick * params_.burstiness));
    const std::uint64_t seq = plane_.nextTickSeq();

    out.resize(at + n);
    if (n == 0)
        return;

    // Each block touches only its lane's Rng (distinct per block —
    // blocks <= kShards) and its own segment of out.
    Op *const ops = out.data() + at;
    forEachBlock(n, seq,
                 [&](std::size_t lane, std::size_t begin, std::size_t end) {
                     drawOps(params_, plane_.lane(lane), ops + begin,
                             end - begin, words_, jitter_);
                     plane_.addOps(lane, end - begin);
                 });
    generated_ += n;
}

ShardedDfsioGenerator::ShardedDfsioGenerator(
    const DfsioParams &params, sim::Rng rng)
    : params_(params), plane_(rng)
{}

DfsioTick
ShardedDfsioGenerator::tick(sim::Tick now)
{
    DfsioTick out;
    out.writes = sizes_.next(plane_.control(), params_.writes_per_tick,
                             params_.writes_per_tick *
                                 params_.burstiness);
    const std::uint64_t seq = plane_.nextTickSeq();

    // The lanes draw nothing: a write carries no per-request payload.
    // Each block's writes still count against the lane the layout
    // gives it, which is what shardOps() reports.
    sim::ShardSpan spans[sim::kShards];
    const std::size_t blocks = sim::shardLayout(
        static_cast<std::size_t>(out.writes), seq, spans);
    for (std::size_t b = 0; b < blocks; ++b)
        plane_.addOps(spans[b].lane, spans[b].end - spans[b].begin);
    generated_ += out.writes;

    if (last_du_ < 0 || now - last_du_ >= params_.du_period) {
        out.du_files = params_.du_file_count;
        last_du_ = now;
        ++generated_;
        // du is control-plane work; attribute it to the tick's
        // rotating lane so the shard counters still sum to generated().
        plane_.addOps(static_cast<std::size_t>(seq % sim::kShards), 1);
    }
    return out;
}

} // namespace smartconf::workload
