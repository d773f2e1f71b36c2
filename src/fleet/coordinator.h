#ifndef SMARTCONF_FLEET_COORDINATOR_H_
#define SMARTCONF_FLEET_COORDINATOR_H_

/**
 * @file
 * Cluster-wide goal coordination across tenant nodes.
 *
 * The paper's Sec. 5.4 splits the control error of one process's N
 * interacting configurations via the interaction factor in
 * (1-p)/(N*alpha).  The FleetCoordinator generalizes that mechanism
 * across *nodes*: tenants whose capacity-class metrics sum cluster-wide
 * (total heap over a memory cluster, aggregate disk over a colocated
 * batch pool) are grouped under one super-hard cluster goal, and every
 * member controller tracks the cluster aggregate with its interaction
 * factor set to the cluster's live membership count.
 *
 * Coordination is **epoch-batched**, not per-tick: once per epoch the
 * coordinator (serially, between the parallel epoch bodies)
 *
 *   1. re-asserts every member's registration against the underlying
 *      GoalCoordinator — attaching is idempotent, so periodic
 *      re-assertion is a membership heartbeat rather than an N
 *      inflation (this is exactly the call pattern that exposed the
 *      duplicate-attach bug);
 *   2. aggregates member metrics in pinned join order and counts
 *      cluster-goal violations of the aggregate;
 *   3. fans the frozen sibling sum (aggregate minus own metric) back
 *      out to each member, which tracks that stale view until the next
 *      epoch.
 *
 * Per-member state is two dense arrays the coordinator owns, in join
 * order, cluster after cluster: the members' published metrics (each
 * bound TenantNode writes its metric there at bind and after every
 * tick) and their frozen views (written here, read by the node's
 * metricView()).  So the serial epoch reads and writes two contiguous
 * arrays instead of every tenant object that other cores have just
 * ticked.
 *
 * Cost per epoch.  The heartbeat is one GoalCoordinator::attachAll per
 * *cluster*: one hashed registry lookup plus a compare of the
 * registered controller pointers, which match from the second epoch
 * on, so the interaction factor is refreshed only when membership
 * changed.  Steps 2 and 3 touch every member once and stay serial, in
 * join order: the aggregate is a floating-point sum whose order is
 * part of the output, and a second fork/join per epoch does not pay:
 * at 10k tenants one wake-up of the parked helpers costs more than the
 * whole aggregate (DESIGN.md §7 has the measurements).  The tenants'
 * own ticks run in the parallel epoch body (fleet/fleet.h), not here.
 *
 * Batching makes the coordination cost measurable — attach calls and
 * fan-outs (one per member per epoch) and wall time per epoch are all
 * counted — instead of hiding a fleet-wide reduction inside every
 * tenant's inner loop.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "fleet/tenant.h"

namespace smartconf::fleet {

class FleetCoordinator
{
  public:
    /** Coordinator epoch cost/effect counters (FleetResult surface). */
    struct Stats
    {
        std::uint64_t epochs = 0;
        std::uint64_t attach_calls = 0; ///< member re-assertions
        std::uint64_t fanouts = 0;      ///< frozen views installed
        std::uint64_t aggregate_violations = 0; ///< cluster goal missed
        double wall_ms = 0.0; ///< serial coordination time, all epochs
    };

    /**
     * Declare a cluster-wide goal with @p members member slots; returns
     * the cluster id.  The goal is declared on the underlying
     * GoalCoordinator, so when it is super-hard member attachment
     * drives the interaction factor.  Declare every cluster before the
     * first join: join hands each member pointers into the per-member
     * arrays, which a later addCluster may reallocate.
     */
    std::size_t addCluster(Goal goal, std::size_t members);

    /**
     * Put smart tenant @p node in slot @p slot of @p cluster: its
     * controller tracks the cluster goal, it publishes its metric to
     * the slot and reads its frozen view from it.  Slot order is the
     * pinned aggregation (join) order.  Joins into distinct slots may
     * run concurrently; every slot is joined before the first
     * runEpoch(), which throws std::logic_error otherwise.
     * @throws std::out_of_range when @p slot is not below the
     *         cluster's member count.
     * @throws std::invalid_argument for a static node (no controller).
     */
    void join(std::size_t cluster, std::size_t slot, TenantNode *node);

    /**
     * Flip a cluster goal's super-hard flag at run time by
     * re-declaring it (the declareGoal refresh path): members keep
     * their attachment but rebalance between N = |cluster| and N = 1.
     */
    void setSuperHard(std::size_t cluster, bool super_hard);

    /** Run one coordination epoch over every cluster (serial). */
    void runEpoch();

    const Stats &stats() const { return stats_; }
    std::size_t clusterCount() const { return clusters_.size(); }
    std::size_t memberCount(std::size_t cluster) const
    {
        return clusters_[cluster].size;
    }
    const Goal &clusterGoal(std::size_t cluster) const
    {
        return clusters_[cluster].goal;
    }

    /** Largest interaction factor currently installed on any member. */
    double maxInteractionFactor() const;

    /** The per-metric registry backing the fleet (test hook). */
    const GoalCoordinator &registry() const { return registry_; }

  private:
    struct Cluster
    {
        Goal goal;
        std::size_t begin = 0; ///< first member slot
        std::size_t size = 0;  ///< member slots
    };

    GoalCoordinator registry_;
    std::vector<Cluster> clusters_;
    // Per-member state, one entry per slot, in join order.
    std::vector<double> metrics_; ///< members' published local metrics
    std::vector<double> views_;   ///< frozen sibling sums (fan-out)
    std::vector<Controller *> controllers_; ///< heartbeat registrations
    Stats stats_;
};

} // namespace smartconf::fleet

#endif // SMARTCONF_FLEET_COORDINATOR_H_
