#include "core/smartconf.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace smartconf {

namespace {

/** Round to nearest integer and keep within the declared clamp. */
int
roundClamped(double value, const ConfEntry &entry)
{
    const double clamped = std::clamp(value, entry.confMin, entry.confMax);
    return static_cast<int>(std::llround(clamped));
}

} // namespace

SmartConf::SmartConf(SmartConfRuntime &runtime, std::string conf_name)
    : runtime_(runtime), name_(std::move(conf_name)),
      state_(&runtime.stateFor(name_)) // validates eagerly; throws when
                                       // undeclared
{
}

SmartConfRuntime::ConfState &
SmartConf::state()
{
    return *state_;
}

const SmartConfRuntime::ConfState &
SmartConf::state() const
{
    return *state_;
}

void
SmartConf::setPerf(double actual)
{
    auto &st = state();
    st.last_perf = actual;
    st.perf_seen = true;
    if (runtime_.profiling())
        st.profiler.record(st.current, actual, st.current);
}

double
SmartConf::adjust()
{
    auto &st = state();
    if (!st.controller || !st.perf_seen)
        return st.current; // not yet managed: starting value passes through

    st.current = st.controller->update(st.last_perf, st.current);
    if (st.controller->saturated()) {
        // One alert per episode: build the text only when it fires.
        if (!st.alerted)
            runtime_.raiseAlert(
                st, "goal '" + st.entry.metric +
                        "' appears unreachable: configuration pinned "
                        "at " + std::to_string(st.current));
    } else {
        st.alerted = false;
    }
    return st.current;
}

int
SmartConf::getConf()
{
    return roundClamped(adjust(), state().entry);
}

double
SmartConf::getConfReal()
{
    return adjust();
}

void
SmartConf::setGoal(double goal)
{
    runtime_.coordinator().updateGoalValue(state().entry.metric, goal);
}

double
SmartConf::currentValue() const
{
    return state().current;
}

bool
SmartConf::managed() const
{
    return state().controller != nullptr;
}

SmartConfI::SmartConfI(SmartConfRuntime &runtime, std::string conf_name,
                       std::unique_ptr<Transducer> transducer)
    : SmartConf(runtime, std::move(conf_name)),
      transducer_(transducer ? std::move(transducer)
                             : std::make_unique<Transducer>())
{}

void
SmartConfI::setPerf(double actual, double deputy_value)
{
    auto &st = state();
    st.last_perf = actual;
    st.perf_seen = true;
    last_deputy_ = deputy_value;
    deputy_seen_ = true;
    // The model relates performance to the *deputy*, so the regression
    // sees (deputy, perf) pairs, while noise statistics are grouped by
    // the threshold setting in force during this profiling slot.
    if (runtime_.profiling())
        st.profiler.record(deputy_value, actual, st.current);
}

double
SmartConfI::adjustIndirect()
{
    auto &st = state();
    if (!st.controller || !st.perf_seen || !deputy_seen_)
        return st.current;

    // Controller computes the desired next deputy value from the current
    // performance and the deputy's current value (Sec. 5.3) ...
    const double desired_deputy =
        st.controller->update(st.last_perf, last_deputy_);
    // ... and the transducer maps it onto the threshold configuration.
    const double conf = transducer_->transduce(desired_deputy);
    st.current = std::clamp(conf, st.entry.confMin, st.entry.confMax);

    if (st.controller->saturated()) {
        if (!st.alerted)
            runtime_.raiseAlert(
                st, "goal '" + st.entry.metric +
                        "' appears unreachable: deputy pinned at " +
                        std::to_string(desired_deputy));
    } else {
        st.alerted = false;
    }
    return st.current;
}

int
SmartConfI::getConf()
{
    return roundClamped(adjustIndirect(), state().entry);
}

double
SmartConfI::getConfReal()
{
    return adjustIndirect();
}

} // namespace smartconf
