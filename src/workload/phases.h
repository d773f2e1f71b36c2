#ifndef SMARTCONF_WORKLOAD_PHASES_H_
#define SMARTCONF_WORKLOAD_PHASES_H_

/**
 * @file
 * Load shapes over simulated time.
 *
 * Every evaluation workload in the paper has two phases: either the
 * workload itself changes (HB3813's request size doubles at ~200 s) or
 * the performance goal changes (HB2149's latency constraint tightens from
 * 10 s to 5 s).  PhasedSchedule maps a tick to the parameter set active
 * at that time; each scenario's tick loop polls it and pushes changes
 * into the generator or the SmartConf goal.  DiurnalCurve is the smooth
 * day/night swing the fleet's tenants ride.
 */

#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/clock.h"

namespace smartconf::workload {

/**
 * Piecewise-constant schedule of parameter sets over simulated time.
 *
 * @tparam Params any copyable parameter struct.
 */
template <typename Params>
class PhasedSchedule
{
  public:
    /** @param initial parameters active from tick 0. */
    explicit PhasedSchedule(Params initial)
    {
        phases_.emplace_back(0, std::move(initial));
    }

    /**
     * Append a phase starting at @p start (must be after the previous
     * phase's start).
     */
    void addPhase(sim::Tick start, Params params)
    {
        assert(start > phases_.back().first);
        phases_.emplace_back(start, std::move(params));
    }

    /** Parameters active at @p tick. */
    const Params &at(sim::Tick tick) const
    {
        const Params *current = &phases_.front().second;
        for (const auto &[start, params] : phases_) {
            if (start <= tick)
                current = &params;
            else
                break;
        }
        return *current;
    }

    /** Index of the phase active at @p tick (0-based). */
    std::size_t phaseIndex(sim::Tick tick) const
    {
        std::size_t idx = 0;
        for (std::size_t i = 0; i < phases_.size(); ++i) {
            if (phases_[i].first <= tick)
                idx = i;
        }
        return idx;
    }

    /** True when @p tick is the first tick of a later-than-first phase. */
    bool boundaryAt(sim::Tick tick) const
    {
        for (std::size_t i = 1; i < phases_.size(); ++i) {
            if (phases_[i].first == tick)
                return true;
        }
        return false;
    }

    std::size_t phaseCount() const { return phases_.size(); }

    /** Start tick of phase @p i. */
    sim::Tick phaseStart(std::size_t i) const { return phases_.at(i).first; }

  private:
    std::vector<std::pair<sim::Tick, Params>> phases_;
};

/**
 * Minimal diurnal (day/night) load shape: a smooth multiplier that
 * bottoms out at `trough` and peaks at 1.0 once per `period` ticks.
 * Production traffic is rarely stationary, and the paper's controllers
 * must survive load swings.
 */
struct DiurnalCurve
{
    double trough = 0.25;   ///< night-time fraction of peak load
    sim::Tick period = 240; ///< ticks per simulated day
    sim::Tick phase = 0;    ///< tick offset (staggers tenant mixes)

    /** Multiplier in [trough, 1]; trough at t + phase = 0, peak
     *  mid-period.  The phase offset lets a fleet of tenants share one
     *  curve shape while peaking at different times of day. */
    double at(sim::Tick t) const
    {
        const double p = static_cast<double>(period <= 0 ? 1 : period);
        // Raised cosine: trough at phase 0, peak at phase 0.5.
        const double angle = 2.0 * 3.14159265358979323846 *
                             static_cast<double>(t + phase) / p;
        const double swing = 0.5 * (1.0 - std::cos(angle));
        return trough + (1.0 - trough) * swing;
    }
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_PHASES_H_
