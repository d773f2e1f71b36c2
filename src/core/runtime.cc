#include "core/runtime.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace smartconf {

SmartConfRuntime::SmartConfRuntime() = default;

SmartConfRuntime::~SmartConfRuntime()
{
    // Detach controllers before the coordinator forgets about them.
    for (auto &[name, state] : confs_) {
        if (state.controller) {
            coordinator_.detach(state.entry.metric, state.controller.get());
        }
    }
}

void
SmartConfRuntime::loadSysText(const std::string &text)
{
    const SysFile parsed = parseSysFile(text);
    profiling_ = parsed.profilingEnabled;
    for (const auto &entry : parsed.entries)
        declareConf(entry);
}

void
SmartConfRuntime::loadUserConfText(const std::string &text)
{
    const UserConf parsed = parseUserConf(text);
    for (const auto &[metric, goal] : parsed.goals)
        declareGoal(goal);
}

void
SmartConfRuntime::loadProfileText(const std::string &text)
{
    const ProfileFile parsed = parseProfileFile(text);
    installProfile(parsed.conf, parsed.summary);
    ConfState &state = stateFor(parsed.conf);
    for (const auto &pt : parsed.samples)
        state.profiler.record(pt.config, pt.perf);
}

void
SmartConfRuntime::declareConf(const ConfEntry &entry)
{
    if (entry.name.empty())
        throw std::invalid_argument("configuration needs a name");
    auto [it, inserted] = confs_.try_emplace(entry.name);
    ConfState &state = it->second;
    if (!inserted && state.controller) {
        coordinator_.detach(state.entry.metric, state.controller.get());
        state.controller.reset();
    }
    state.entry = entry;
    state.current = entry.initial;
    maybeSynthesize(state);
}

void
SmartConfRuntime::declareGoal(const Goal &goal)
{
    coordinator_.declareGoal(goal);
    for (auto &[name, state] : confs_) {
        if (state.entry.metric == goal.metric) {
            if (state.controller) {
                state.controller->setGoal(goal);
            } else {
                maybeSynthesize(state);
            }
        }
    }
}

void
SmartConfRuntime::installProfile(const std::string &conf,
                                 const ProfileSummary &summary)
{
    ConfState &state = stateFor(conf);
    state.summary = summary;
    if (state.controller) {
        coordinator_.detach(state.entry.metric, state.controller.get());
        state.controller.reset();
    }
    maybeSynthesize(state);
}

void
SmartConfRuntime::setOverrides(const std::string &conf,
                               const ControllerOverrides &overrides)
{
    ConfState &state = stateFor(conf);
    state.overrides = overrides;
    if (state.controller) {
        coordinator_.detach(state.entry.metric, state.controller.get());
        state.controller.reset();
    }
    maybeSynthesize(state);
}

const Profiler &
SmartConfRuntime::profilerFor(const std::string &conf) const
{
    return stateForConst(conf).profiler;
}

void
SmartConfRuntime::setCurrentValue(const std::string &conf, double value)
{
    stateFor(conf).current = value;
}

double
SmartConfRuntime::currentValue(const std::string &conf) const
{
    return stateForConst(conf).current;
}

ProfileSummary
SmartConfRuntime::finishProfiling(const std::string &conf)
{
    ConfState &state = stateFor(conf);
    if (!state.profiler.sufficient()) {
        throw std::runtime_error("not enough profiling samples for '" +
                                 conf + "'");
    }
    const ProfileSummary summary = state.profiler.summarize();
    installProfile(conf, summary);
    return summary;
}

std::string
SmartConfRuntime::formatProfileStore(const std::string &conf) const
{
    const ConfState &state = stateForConst(conf);
    ProfileFile file;
    file.conf = conf;
    file.summary = state.summary.value_or(state.profiler.summarize());
    file.samples = state.profiler.samples();
    return formatProfileFile(file);
}

int
SmartConfRuntime::flushProfiles(const std::string &dir) const
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    int written = 0;
    for (const auto &[name, state] : confs_) {
        if (!state.summary && state.profiler.sampleCount() == 0)
            continue;
        const fs::path path = fs::path(dir) / (name + ".SmartConf.sys");
        writeTextFile(path.string(), formatProfileStore(name));
        ++written;
    }
    return written;
}

int
SmartConfRuntime::loadProfiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir))
        return 0;
    int installed = 0;
    const std::string suffix = ".SmartConf.sys";
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        const std::string conf =
            name.substr(0, name.size() - suffix.size());
        if (!hasConf(conf))
            continue; // a store for software we are not running
        loadProfileText(readTextFile(entry.path().string()));
        ++installed;
    }
    return installed;
}

std::vector<LintIssue>
SmartConfRuntime::lint() const
{
    SysFile sys;
    sys.profilingEnabled = profiling_;
    for (const auto &[name, state] : confs_)
        sys.entries.push_back(state.entry);
    UserConf user;
    user.goals = coordinator_.goals();

    std::vector<LintIssue> issues = lintDeployment(sys, user);
    for (const auto &[name, state] : confs_) {
        if (!state.summary)
            continue;
        ProfileFile store;
        store.conf = name;
        store.summary = *state.summary;
        store.samples = state.profiler.samples();
        const auto more = lintProfile(store, state.entry);
        issues.insert(issues.end(), more.begin(), more.end());
    }
    return issues;
}

void
SmartConfRuntime::setAlertHandler(AlertHandler handler)
{
    alert_handler_ = std::move(handler);
}

bool
SmartConfRuntime::hasConf(const std::string &conf) const
{
    return confs_.count(conf) > 0;
}

const ConfEntry &
SmartConfRuntime::entryFor(const std::string &conf) const
{
    return stateForConst(conf).entry;
}

SmartConfRuntime::ConfState &
SmartConfRuntime::stateFor(const std::string &conf)
{
    const auto it = confs_.find(conf);
    if (it == confs_.end())
        throw std::out_of_range("unknown SmartConf configuration '" + conf +
                                "'");
    return it->second;
}

const SmartConfRuntime::ConfState &
SmartConfRuntime::stateForConst(const std::string &conf) const
{
    const auto it = confs_.find(conf);
    if (it == confs_.end())
        throw std::out_of_range("unknown SmartConf configuration '" + conf +
                                "'");
    return it->second;
}

void
SmartConfRuntime::maybeSynthesize(ConfState &state)
{
    if (state.controller || !state.summary ||
        !coordinator_.hasGoal(state.entry.metric)) {
        return;
    }
    const ProfileSummary &s = *state.summary;
    if (!std::isfinite(s.alpha) || s.alpha == 0.0)
        throw std::runtime_error("profile for '" + state.entry.name +
                                 "' has zero or non-finite gain; "
                                 "cannot synthesize");
    if (s.insufficient) {
        // Degenerate profile (single setting, all-singleton groups, or
        // a flat surface): the projected pole/lambda are maximum-
        // distrust fallbacks, not measurements.  Synthesize — the
        // conservative parameters are safe — but tell the operator the
        // controller is running on guesswork, not a profile.
        raiseAlert(state,
                   "profile for '" + state.entry.name +
                       "' lacks usable per-setting noise statistics "
                       "(single-setting, all-singleton or flat "
                       "profile); synthesizing with maximum-distrust "
                       "pole/margin — re-profile with >= 2 settings "
                       "and >= 2 samples each");
        state.alerted = false; // keep run-time alerts armed
    }
    if (!s.monotonic) {
        // Paper Sec. 6.6: SmartConf requires a monotonic relationship
        // between configuration and performance; warn loudly (but
        // still synthesize, so the caller can observe the mismanage-
        // ment the paper describes for MR5420-style configurations).
        raiseAlert(state,
                   "profiling suggests a NON-MONOTONIC relationship "
                   "between '" + state.entry.name + "' and '" +
                       state.entry.metric +
                       "'; SmartConf cannot manage such "
                       "configurations reliably (see paper Sec. 6.6)");
        state.alerted = false; // keep run-time alerts armed
    }

    ControllerParams params;
    params.alpha = s.alpha;
    params.pole = state.overrides.pole.value_or(s.pole);
    params.lambda = state.overrides.lambda.value_or(s.lambda);
    params.useVirtualGoal = state.overrides.useVirtualGoal;
    params.useContextAwarePoles = state.overrides.useContextAwarePoles;
    params.confMin = state.overrides.deputyMin.value_or(state.entry.confMin);
    params.confMax = state.overrides.deputyMax.value_or(state.entry.confMax);

    const Goal &goal = coordinator_.goalFor(state.entry.metric);
    state.controller = std::make_unique<Controller>(params, goal);
    coordinator_.attach(state.entry.metric, state.controller.get());
}

void
SmartConfRuntime::raiseAlert(ConfState &state, const std::string &msg)
{
    if (state.alerted)
        return;
    state.alerted = true;
    ++alert_count_;
    if (alert_handler_)
        alert_handler_(state.entry.name, msg);
}

} // namespace smartconf
