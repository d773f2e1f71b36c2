#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smartconf {

Controller::Controller(const ControllerParams &params, const Goal &goal)
    : params_(params), goal_(goal)
{
    // Constructor-time validation instead of debug-only asserts: a
    // release build handed alpha == 0 (a flat profile surface) used to
    // divide by zero on every update.  Synthesis bugs must fail loudly
    // at build time, not emit Inf configurations at run time.
    if (!std::isfinite(params_.alpha) || params_.alpha == 0.0)
        throw std::invalid_argument(
            "controller gain alpha must be finite and non-zero");
    if (!(params_.pole >= 0.0 && params_.pole < 1.0))
        throw std::invalid_argument(
            "controller pole must lie in [0, 1)");
    if (!(params_.aggressivePole >= 0.0 && params_.aggressivePole < 1.0))
        throw std::invalid_argument(
            "controller aggressive pole must lie in [0, 1)");
    if (!(params_.interactionFactor >= 1.0))
        throw std::invalid_argument(
            "controller interaction factor must be >= 1");
    if (!std::isfinite(params_.lambda))
        throw std::invalid_argument(
            "controller lambda must be finite");
    if (std::isnan(params_.confMin) || std::isnan(params_.confMax) ||
        params_.confMin > params_.confMax) {
        throw std::invalid_argument(
            "controller clamp needs confMin <= confMax");
    }
    requireFiniteGoalValue(goal_.metric, goal_.value);
    recomputeVirtualGoal();
}

void
Controller::recomputeVirtualGoal()
{
    if (goal_.hard && params_.useVirtualGoal) {
        virtual_goal_ = virtualGoalFor(goal_, params_.lambda);
    } else {
        virtual_goal_ = goal_.value;
    }
}

double
Controller::setPoint() const
{
    return virtual_goal_;
}

bool
Controller::inDangerZone(double perf) const
{
    if (goal_.direction == GoalDirection::UpperBound)
        return perf > virtual_goal_;
    return perf < virtual_goal_;
}

double
Controller::effectivePole(double perf) const
{
    if (goal_.hard && params_.useContextAwarePoles && inDangerZone(perf))
        return params_.aggressivePole;
    return params_.pole;
}

double
Controller::update(double measured_perf, double current_conf)
{
    if (!std::isfinite(measured_perf) || !std::isfinite(current_conf)) {
        // A NaN measurement used to propagate into the configuration
        // and stay there forever (NaN + anything = NaN).  Treat the
        // tick as a sensor fault: count it, hold the last good output,
        // and never emit a non-finite value.
        ++faults_;
        const double held =
            last_output_
                ? *last_output_
                : std::clamp(std::isfinite(current_conf) ? current_conf
                                                         : params_.confMin,
                             params_.confMin, params_.confMax);
        last_output_ = held;
        return held;
    }

    const double e = setPoint() - measured_perf;
    const double p = effectivePole(measured_perf);
    const double step =
        (1.0 - p) / (params_.interactionFactor * params_.alpha) * e;
    double next = current_conf + step;

    if (next <= params_.confMin) {
        next = params_.confMin;
        // Still being pushed below the clamp: candidate unreachable goal.
        saturation_ = (step < 0.0) ? saturation_ + 1 : 0;
    } else if (next >= params_.confMax) {
        next = params_.confMax;
        saturation_ = (step > 0.0) ? saturation_ + 1 : 0;
    } else {
        saturation_ = 0;
    }

    last_output_ = next;
    return next;
}

void
Controller::setGoal(const Goal &goal)
{
    requireFiniteGoalValue(goal.metric, goal.value);
    goal_ = goal;
    saturation_ = 0;
    recomputeVirtualGoal();
}

void
Controller::setInteractionFactor(double n)
{
    if (!(n >= 1.0))
        throw std::invalid_argument(
            "controller interaction factor must be >= 1");
    params_.interactionFactor = n;
}

} // namespace smartconf
