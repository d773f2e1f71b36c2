#include "core/coordinator.h"

#include <algorithm>
#include <stdexcept>

#include "core/controller.h"

namespace smartconf {

void
GoalCoordinator::declareGoal(const Goal &goal)
{
    requireFiniteGoalValue(goal.metric, goal.value);
    const auto it = goals_.find(goal.metric);
    const bool super_changed =
        it == goals_.end() ? goal.superHard
                           : it->second.superHard != goal.superHard;
    goals_[goal.metric] = goal;
    // A re-declared goal can flip superHard while controllers are
    // already attached (fleet epochs, setGoal-style reconfiguration).
    // Without this refresh they would keep the stale interaction
    // factor until the next attach/detach happened to run.
    if (super_changed)
        refreshInteractionFactors(goal.metric);
}

const Goal &
GoalCoordinator::goalFor(const std::string &metric) const
{
    const auto it = goals_.find(metric);
    if (it == goals_.end())
        throw std::out_of_range("no goal declared for metric '" + metric +
                                "'");
    return it->second;
}

bool
GoalCoordinator::hasGoal(const std::string &metric) const
{
    return goals_.count(metric) > 0;
}

void
GoalCoordinator::attach(const std::string &metric, Controller *controller)
{
    attachAll(metric, std::span<Controller *const>(&controller, 1));
}

void
GoalCoordinator::attachAll(const std::string &metric,
                           std::span<Controller *const> controllers)
{
    if (controllers.empty())
        return;
    auto &vec = attached_[metric];
    if (std::equal(vec.begin(), vec.end(), controllers.begin(),
                   controllers.end()))
        return;
    // Idempotent: registering the same controller twice must not
    // double-count it in interactionCount() — N feeds straight into
    // the (1-p)/(N*alpha) error split, so a duplicate would halve
    // every sibling's gain for good.
    bool added = false;
    if (vec.empty())
        vec.reserve(controllers.size());
    for (Controller *c : controllers) {
        if (std::find(vec.begin(), vec.end(), c) != vec.end())
            continue;
        vec.push_back(c);
        added = true;
    }
    // One refresh writes the final N to every attached controller —
    // the same end state as one refresh per newcomer.
    if (added)
        refreshInteractionFactors(metric);
}

void
GoalCoordinator::detach(const std::string &metric, Controller *controller)
{
    auto it = attached_.find(metric);
    if (it == attached_.end())
        return;
    auto &vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), controller), vec.end());
    if (vec.empty()) {
        attached_.erase(it);
    } else {
        refreshInteractionFactors(metric);
    }
}

std::size_t
GoalCoordinator::interactionCount(const std::string &metric) const
{
    const auto it = attached_.find(metric);
    return it == attached_.end() ? 0 : it->second.size();
}

void
GoalCoordinator::updateGoalValue(const std::string &metric, double value)
{
    requireFiniteGoalValue(metric, value);
    auto it = goals_.find(metric);
    if (it == goals_.end())
        throw std::out_of_range("no goal declared for metric '" + metric +
                                "'");
    it->second.value = value;
    const auto att = attached_.find(metric);
    if (att == attached_.end())
        return;
    for (Controller *c : att->second)
        c->setGoal(it->second);
}

void
GoalCoordinator::refreshInteractionFactors(const std::string &metric)
{
    const auto att = attached_.find(metric);
    if (att == attached_.end())
        return;
    // Non-super-hard (or undeclared) goals do not split the error:
    // every attached controller runs at N = 1.  Writing 1 explicitly
    // matters when a goal is re-declared with superHard flipped off —
    // the factors set while it was super-hard must not linger.
    const auto g = goals_.find(metric);
    const bool super = g != goals_.end() && g->second.superHard;
    const double n =
        super ? std::max(1.0, static_cast<double>(att->second.size()))
              : 1.0;
    for (Controller *c : att->second)
        c->setInteractionFactor(n);
}

} // namespace smartconf
