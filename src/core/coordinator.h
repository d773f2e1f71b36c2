#ifndef SMARTCONF_CORE_COORDINATOR_H_
#define SMARTCONF_CORE_COORDINATOR_H_

/**
 * @file
 * Coordination of multiple PerfConfs sharing one goal (paper Sec. 5.4).
 *
 * SmartConf deliberately does not synthesize one big MIMO controller.
 * Instead, each configuration keeps its own controller, and controllers
 * that share a *super-hard* goal split the error evenly via an interaction
 * factor N (the count of registered configurations for that metric).  The
 * coordinator is the registry that knows N for every metric and fans out
 * run-time goal updates (setGoal) to all affected controllers.
 */

#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/goal.h"

namespace smartconf {

class Controller;

/**
 * Per-metric registry of goals and of the controllers tracking them.
 */
class GoalCoordinator
{
  public:
    /**
     * Install (or replace) the goal for @p goal.metric.
     *
     * Re-declaring a goal with a different superHard flag refreshes the
     * interaction factor of every already-attached controller: flipping
     * super-hard on rebalances them to N, flipping it off resets them
     * to 1.  (Values are *not* pushed to controllers here; use
     * updateGoalValue for run-time value changes.)
     *
     * @throws std::invalid_argument for a NaN or infinite goal value;
     *         nothing is stored.
     */
    void declareGoal(const Goal &goal);

    /** Goal lookup. @throws std::out_of_range when undeclared. */
    const Goal &goalFor(const std::string &metric) const;

    /** True when a goal was declared for @p metric. */
    bool hasGoal(const std::string &metric) const;

    /**
     * Register a controller against its goal metric.
     *
     * For super-hard goals, the interaction factor of *every* registered
     * sibling (including the newcomer) is updated to the new count, so
     * late registration — configurations added as software evolves — is
     * handled transparently.
     *
     * Idempotent: attaching a controller that is already registered is
     * a no-op (it is never double-counted in interactionCount()), so
     * periodic re-registration — the fleet layer re-asserts membership
     * every epoch — is safe by construction.
     */
    void attach(const std::string &metric, Controller *controller);

    /**
     * attach() every controller of @p controllers, in order, with one
     * hashed registry lookup and at most one interaction-factor
     * refresh.
     *
     * The end state equals that of attaching them one by one.  When the
     * registry already holds exactly these controllers in this order —
     * the steady state of a membership heartbeat — the call compares
     * pointers and returns.  An empty range is a no-op.
     */
    void attachAll(const std::string &metric,
                   std::span<Controller *const> controllers);

    /** Remove a controller (e.g. its SmartConf object was destroyed). */
    void detach(const std::string &metric, Controller *controller);

    /** Number of configurations registered against @p metric. */
    std::size_t interactionCount(const std::string &metric) const;

    /** All declared goals, keyed by metric. */
    const std::map<std::string, Goal> &goals() const { return goals_; }

    /**
     * Run-time goal update (users can call setGoal, Sec. 4.3): replaces
     * the stored value and pushes the new goal into every controller
     * attached to the metric.
     *
     * @throws std::invalid_argument for a NaN or infinite @p value,
     *         before anything is stored.
     */
    void updateGoalValue(const std::string &metric, double value);

  private:
    void refreshInteractionFactors(const std::string &metric);

    std::map<std::string, Goal> goals_; ///< ordered: goals() hands it out
    /** Only found, inserted into and erased, never iterated: hashed,
     *  so a steady-state attachAll is one lookup, not a tree walk. */
    std::unordered_map<std::string, std::vector<Controller *>> attached_;
};

} // namespace smartconf

#endif // SMARTCONF_CORE_COORDINATOR_H_
