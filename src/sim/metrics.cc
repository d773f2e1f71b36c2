#include "sim/metrics.h"

#include <algorithm>

namespace smartconf::sim {

double
TimeSeries::max() const
{
    double best = 0.0;
    for (const auto &p : points_)
        best = std::max(best, p.value);
    return best;
}

double
TimeSeries::mean() const
{
    if (points_.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &p : points_)
        acc += p.value;
    return acc / static_cast<double>(points_.size());
}

std::vector<TimeSeries::Point>
TimeSeries::downsampleMax(std::size_t buckets) const
{
    if (buckets == 0)
        return {}; // "at most 0 points" is the empty series
    if (points_.size() <= buckets)
        return points_;
    std::vector<Point> out;
    out.reserve(buckets);
    const std::size_t stride =
        (points_.size() + buckets - 1) / buckets;
    for (std::size_t i = 0; i < points_.size(); i += stride) {
        Point best = points_[i];
        const std::size_t end = std::min(i + stride, points_.size());
        for (std::size_t j = i; j < end; ++j) {
            if (points_[j].value > best.value)
                best = points_[j];
        }
        out.push_back(best);
    }
    return out;
}

} // namespace smartconf::sim
