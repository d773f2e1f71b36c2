#ifndef SMARTCONF_CORE_GOAL_H_
#define SMARTCONF_CORE_GOAL_H_

/**
 * @file
 * Performance goals as users express them (paper Sec. 4.3).
 *
 * A SmartConf user never sets a configuration value; they state a goal for
 * a performance metric ("memory_consumption_max = 1024",
 * "memory_consumption_max.hard = 1").  The goal carries a direction:
 * almost all PerfConf goals bound the metric from above (memory, disk,
 * worst-case latency), but lower bounds (e.g. minimum throughput) are
 * supported for generality.
 */

#include <string>

namespace smartconf {

/** Which side of the goal value is the "safe" side. */
enum class GoalDirection
{
    UpperBound, ///< metric must stay <= value (memory, disk, latency)
    LowerBound, ///< metric must stay >= value (throughput floors)
};

/**
 * A user-specified performance goal for one metric.
 */
struct Goal
{
    /** Metric name, e.g. "memory_consumption_max". */
    std::string metric;

    /** The constraint value in the metric's native unit. */
    double value = 0.0;

    /** Safe side of the constraint. */
    GoalDirection direction = GoalDirection::UpperBound;

    /**
     * Hard goals must never be overshot (OOM/OOD class constraints);
     * they enable the virtual goal + context-aware poles machinery.
     */
    bool hard = false;

    /**
     * Super-hard goals additionally split the controller gain across all
     * N configurations registered against the metric (paper Sec. 5.4).
     */
    bool superHard = false;

    /** True when @p perf is on the unsafe side of @p bound. */
    bool violatedBy(double perf) const
    {
        return direction == GoalDirection::UpperBound ? perf > value
                                                      : perf < value;
    }
};

/**
 * Automated virtual goal s_v (paper Sec. 5.2).
 *
 * For upper bounds s_v = (1 - lambda) * s; for lower bounds
 * s_v = (1 + lambda) * s.  The more unstable profiling showed the system
 * to be (larger lambda), the wider the safety margin.
 */
double virtualGoalFor(const Goal &goal, double lambda);

/**
 * Reject a goal value no controller can track.  A NaN goal makes every
 * error term NaN (the controller would emit NaN configurations) and an
 * infinite one pins the controller at a clamp, so both are input
 * errors, not goals.
 *
 * @throws std::invalid_argument when @p value is NaN or infinite.
 */
void requireFiniteGoalValue(const std::string &metric, double value);

} // namespace smartconf

#endif // SMARTCONF_CORE_GOAL_H_
