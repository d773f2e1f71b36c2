#include "workload/dfsio.h"

namespace smartconf::workload {

DfsioGenerator::DfsioGenerator(const DfsioParams &params, sim::Rng rng)
    : params_(params), rng_(rng)
{}

DfsioTick
DfsioGenerator::tick(sim::Tick now)
{
    DfsioTick out;
    out.writes = sizes_.next(rng_, params_.writes_per_tick,
                             params_.writes_per_tick * params_.burstiness);
    const std::uint64_t seq = seq_++;
    forEachBlock(static_cast<std::size_t>(out.writes), seq,
                 [this](std::size_t lane, std::size_t begin,
                        std::size_t end) { ops_[lane] += end - begin; });
    generated_ += out.writes;

    if (last_du_ < 0 || now - last_du_ >= params_.du_period) {
        out.du_files = params_.du_file_count;
        last_du_ = now;
        ++generated_;
        ++ops_[seq % kShards];
    }
    return out;
}

} // namespace smartconf::workload
