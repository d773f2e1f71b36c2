#include "workload/dfsio.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

DfsioGenerator::DfsioGenerator(const DfsioParams &params, sim::Rng rng)
    : params_(params), rng_(rng)
{}

void
DfsioGenerator::tickInto(sim::Tick now, std::vector<DfsRequest> &out)
{
    const double raw = rng_.gaussian(
        params_.writes_per_tick,
        params_.writes_per_tick * params_.burstiness);
    const auto n = static_cast<std::size_t>(std::max(0.0, std::round(raw)));

    out.assign(n, DfsRequest{});
    generated_ += n;

    if (last_du_ < 0 || now - last_du_ >= params_.du_period) {
        DfsRequest du;
        du.type = DfsRequest::Type::ContentSummary;
        du.file_count = params_.du_file_count;
        out.push_back(du);
        last_du_ = now;
        ++generated_;
    }
}

} // namespace smartconf::workload
