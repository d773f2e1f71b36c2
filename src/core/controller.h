#ifndef SMARTCONF_CORE_CONTROLLER_H_
#define SMARTCONF_CORE_CONTROLLER_H_

/**
 * @file
 * The SmartConf integral controller (paper Sec. 5, Eq. 2), extended with
 * the paper's PerfConf-specific mechanisms:
 *
 *  - automatically selected pole (Sec. 5.1),
 *  - virtual goal + context-aware poles for hard goals (Sec. 5.2),
 *  - interaction factor N for super-hard shared goals (Sec. 5.4).
 *
 * The controller is deliberately free of any I/O or threading concerns; it
 * is a pure function of its parameters and the measurement stream, which
 * makes every property testable in isolation.
 */

#include <cstdint>
#include <optional>

#include "core/goal.h"

namespace smartconf {

/** Tuning and synthesis parameters of one controller instance. */
struct ControllerParams
{
    /** Model gain alpha of Eq. 1; must be non-zero. May be negative. */
    double alpha = 1.0;

    /** Regular pole in [0, 1) (Sec. 5.1). */
    double pole = 0.0;

    /**
     * Pole used once the virtual goal is crossed (Sec. 5.2).  The paper
     * uses the smallest possible pole, 0, for the danger zone; kept as a
     * parameter so the Fig. 7 single-pole ablation can disable it.
     */
    double aggressivePole = 0.0;

    /** Profiling instability lambda; determines the virtual goal. */
    double lambda = 0.0;

    /**
     * Interaction factor N >= 1: number of configurations sharing a
     * super-hard goal.  The error is split evenly across them (Sec. 5.4).
     */
    double interactionFactor = 1.0;

    /** Inclusive clamp for the configuration value. */
    double confMin = 0.0;
    double confMax = 1e18;

    /**
     * When false, the virtual goal is disabled and the controller tracks
     * the raw goal even for hard constraints (the Fig. 7 "No Virtual
     * Goal" ablation).
     */
    bool useVirtualGoal = true;

    /**
     * When false, the danger-zone pole switch is disabled (the Fig. 7
     * "Single Pole" ablation).
     */
    bool useContextAwarePoles = true;
};

/**
 * First-order integral controller over one configuration (Eq. 2):
 *
 *     c(k+1) = c(k) + (1 - p)/(N * alpha) * e(k+1)
 *
 * For hard goals the tracked set-point is the virtual goal
 * s_v = (1 +- lambda) * s, and the pole switches to the aggressive pole
 * whenever the measurement is on the unsafe side of s_v.
 */
class Controller
{
  public:
    /**
     * @param params synthesis output (alpha, pole, lambda, clamps).
     * @param goal   the user goal this controller tracks.
     * @throws std::invalid_argument when the parameters lie outside the
     *         stability region (alpha zero/non-finite, pole outside
     *         [0, 1), interaction factor < 1, inverted clamp) — the
     *         error path that used to be a debug-only assert, so a
     *         release build could divide by alpha == 0 — or when the
     *         goal value is NaN or infinite.
     */
    Controller(const ControllerParams &params, const Goal &goal);

    /**
     * Compute the next configuration value.
     *
     * A non-finite @p measured_perf or @p current_conf (NaN sensor,
     * poisoned deputy) is a *fault*, not an input: the controller holds
     * its last output, increments faults(), and never emits a
     * non-finite or out-of-clamp value.
     *
     * @param measured_perf latest sensor reading of the goal metric.
     * @param current_conf  current value of the controlled variable (the
     *                      configuration itself for direct configs, the
     *                      deputy variable for indirect ones, Sec. 5.3).
     * @return the clamped next value of the controlled variable;
     *         always finite and within [confMin, confMax].
     */
    double update(double measured_perf, double current_conf);

    /**
     * Replace the goal at run time (setGoal API); keeps lambda.
     * @throws std::invalid_argument for a NaN or infinite goal value;
     *         the current goal is kept.
     */
    void setGoal(const Goal &goal);

    /** Change the interaction factor when siblings register (Sec. 5.4). */
    void setInteractionFactor(double n);

    /** The set-point actually tracked: virtual goal if hard, else goal. */
    double setPoint() const;

    /** Virtual goal derived from the current goal and lambda. */
    double virtualGoal() const { return virtual_goal_; }

    /** True when @p perf lies on the unsafe side of the virtual goal. */
    bool inDangerZone(double perf) const;

    /** Pole that would be applied for measurement @p perf. */
    double effectivePole(double perf) const;

    const Goal &goal() const { return goal_; }
    const ControllerParams &params() const { return params_; }

    /** Value returned by the last update(); nullopt before any update. */
    std::optional<double> lastOutput() const { return last_output_; }

    /**
     * True when the controller has been pinned at a clamp for at least
     * @p streak consecutive updates while still erring toward that clamp;
     * the runtime uses this to raise the "goal unreachable" alert
     * (paper Sec. 4.3).
     */
    bool saturated(int streak = 3) const { return saturation_ >= streak; }

    /**
     * Updates rejected because an input was non-finite (the controller
     * held its last output instead).  A persistently climbing count
     * means the sensor is broken, not the plant.
     */
    std::uint64_t faults() const { return faults_; }

  private:
    void recomputeVirtualGoal();

    ControllerParams params_;
    Goal goal_;
    double virtual_goal_ = 0.0;
    std::optional<double> last_output_;
    int saturation_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace smartconf

#endif // SMARTCONF_CORE_CONTROLLER_H_
