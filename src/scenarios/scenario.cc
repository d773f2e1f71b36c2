#include "scenarios/scenario.h"

#include <cstdio>
#include <utility>

#include "scenarios/ca6059.h"
#include "scenarios/hb2149.h"
#include "scenarios/hb3813.h"
#include "scenarios/hb6728.h"
#include "scenarios/hd4995.h"
#include "scenarios/mr2820.h"
#include "scenarios/tape_scenario.h"
#include "sim/rng.h"
#include "workload/tape.h"

namespace smartconf::scenarios {

namespace {

/** Round-trip-exact double encoding (distinct doubles, distinct keys). */
std::string
exactDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
kindName(Policy::Kind k)
{
    switch (k) {
    case Policy::Kind::Static:
        return "static";
    case Policy::Kind::Smart:
        return "smart";
    case Policy::Kind::SmartSinglePole:
        return "single_pole";
    case Policy::Kind::SmartNoVirtualGoal:
        return "no_virtual_goal";
    }
    return "?";
}

} // namespace

std::string
Policy::cacheKey() const
{
    std::string key = kindName(kind);
    if (kind == Kind::Static)
        key += ":v=" + exactDouble(value);
    if (pole_override)
        key += ":pole=" + exactDouble(*pole_override);
    // Appended only when a campaign is active, so every pre-existing
    // chaos-free key (and its disk-cache entry) is untouched.
    if (hasChaos())
        key += ":" + chaos->cacheKey();
    key += ":label=" + label;
    return key;
}

Policy
Policy::withChaos(const fault::ChaosSpec &spec) const
{
    Policy p = *this;
    p.chaos = std::make_shared<const fault::ChaosSpec>(spec);
    return p;
}

Policy
Policy::makeStatic(double v, std::string label)
{
    Policy p;
    p.kind = Kind::Static;
    p.value = v;
    p.label = label.empty() ? "Static-" + std::to_string(v) : label;
    return p;
}

Policy
Policy::smart()
{
    Policy p;
    p.kind = Kind::Smart;
    p.label = "SmartConf";
    return p;
}

Policy
Policy::singlePole(double pole)
{
    Policy p;
    p.kind = Kind::SmartSinglePole;
    p.label = "Single Pole";
    p.pole_override = pole;
    return p;
}

Policy
Policy::noVirtualGoal()
{
    Policy p;
    p.kind = Kind::SmartNoVirtualGoal;
    p.label = "No Virtual Goal";
    return p;
}

std::vector<ScenarioResult>
Scenario::runPolicies(std::span<const Policy> policies,
                      std::uint64_t seed) const
{
    std::vector<ScenarioResult> out;
    out.reserve(policies.size());
    for (const Policy &policy : policies)
        out.push_back(run(policy, seed));
    return out;
}

ScenarioResult
TapeScenario::run(const Policy &policy, std::uint64_t seed) const
{
    return std::move(runPolicies({&policy, 1}, seed).front());
}

std::vector<ScenarioResult>
TapeScenario::runPolicies(std::span<const Policy> policies,
                          std::uint64_t seed) const
{
    workload::YcsbTape tape(streamParams(), sim::Rng(seed).fork(2));
    std::vector<ScenarioResult> out;
    out.reserve(policies.size());
    for (const Policy &policy : policies)
        out.push_back(runOnTape(policy, seed, tape));
    return out;
}

std::vector<std::unique_ptr<Scenario>>
makeAllScenarios()
{
    std::vector<std::unique_ptr<Scenario>> out;
    out.push_back(std::make_unique<Ca6059Scenario>());
    out.push_back(std::make_unique<Hb2149Scenario>());
    out.push_back(std::make_unique<Hb3813Scenario>());
    out.push_back(std::make_unique<Hb6728Scenario>());
    out.push_back(std::make_unique<Hd4995Scenario>());
    out.push_back(std::make_unique<Mr2820Scenario>());
    return out;
}

std::unique_ptr<Scenario>
makeScenario(const std::string &id)
{
    if (id == "CA6059")
        return std::make_unique<Ca6059Scenario>();
    if (id == "HB2149")
        return std::make_unique<Hb2149Scenario>();
    if (id == "HB3813")
        return std::make_unique<Hb3813Scenario>();
    if (id == "HB6728")
        return std::make_unique<Hb6728Scenario>();
    if (id == "HD4995")
        return std::make_unique<Hd4995Scenario>();
    if (id == "MR2820")
        return std::make_unique<Mr2820Scenario>();
    return nullptr;
}

} // namespace smartconf::scenarios
