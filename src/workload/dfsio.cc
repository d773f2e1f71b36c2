#include "workload/dfsio.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

DfsioGenerator::DfsioGenerator(const DfsioParams &params, sim::Rng rng)
    : params_(params), rng_(rng)
{}

DfsioTick
DfsioGenerator::tick(sim::Tick now)
{
    const double raw = rng_.gaussian(
        params_.writes_per_tick,
        params_.writes_per_tick * params_.burstiness);

    DfsioTick out;
    out.writes =
        static_cast<std::uint64_t>(std::max(0.0, std::round(raw)));
    generated_ += out.writes;

    if (last_du_ < 0 || now - last_du_ >= params_.du_period) {
        out.du_files = params_.du_file_count;
        last_du_ = now;
        ++generated_;
    }
    return out;
}

} // namespace smartconf::workload
