#ifndef SMARTCONF_SIM_METRICS_H_
#define SMARTCONF_SIM_METRICS_H_

/**
 * @file
 * Measurement recording for experiments.
 *
 * TimeSeries captures (tick, value) curves — the raw material for the
 * paper's Figures 6-8 and for each run's worst goal metric, mean
 * configuration and trade-off.  Callers that know the run horizon can
 * reserve() capacity up front so the per-tick record() path never
 * reallocates.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace smartconf::sim {

/** A named (tick, value) curve. */
class TimeSeries
{
  public:
    struct Point
    {
        Tick tick;
        double value;
    };

    explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

    /** Pre-size for @p n points (e.g. the scenario horizon in ticks). */
    void reserve(std::size_t n) { points_.reserve(n); }

    void record(Tick tick, double value)
    {
        points_.push_back({tick, value});
    }

    /** Replace the whole curve (bulk deserialization). */
    void assign(std::vector<Point> points)
    {
        points_ = std::move(points);
    }

    const std::string &name() const { return name_; }
    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** Largest recorded value; 0 when empty. */
    double max() const;

    /** Mean of recorded values; 0 when empty. */
    double mean() const;

    /**
     * Down-sample to at most @p buckets points (taking the max within
     * each bucket) — keeps printed figure data readable.
     *
     * Edge cases: 0 buckets yields an empty vector (the contract is
     * "at most @p buckets points"); @p buckets >= size() returns the
     * series unchanged; a single point survives as itself.
     */
    std::vector<Point> downsampleMax(std::size_t buckets) const;

  private:
    std::string name_;
    std::vector<Point> points_;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_METRICS_H_
