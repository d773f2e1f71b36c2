#include "fleet/coordinator.h"

#include <algorithm>
#include <chrono>

#include "core/controller.h"

namespace smartconf::fleet {

std::size_t
FleetCoordinator::addCluster(const Goal &goal)
{
    registry_.declareGoal(goal);
    clusters_.push_back(Cluster{goal, {}, {}});
    return clusters_.size() - 1;
}

void
FleetCoordinator::join(std::size_t cluster, TenantNode *node)
{
    Cluster &c = clusters_[cluster];
    node->bindCluster(c.goal);
    c.members.push_back(node);
    if (Controller *ctl = node->controller())
        c.controllers.push_back(ctl);
}

void
FleetCoordinator::setSuperHard(std::size_t cluster, bool super_hard)
{
    Cluster &c = clusters_[cluster];
    c.goal.superHard = super_hard;
    // Re-declaration refreshes every attached member's interaction
    // factor (the declareGoal fix this PR ships); membership itself
    // is untouched.
    registry_.declareGoal(c.goal);
}

void
FleetCoordinator::runEpoch()
{
    const auto t0 = std::chrono::steady_clock::now();
    for (Cluster &c : clusters_) {
        // Membership heartbeat: every epoch each member re-asserts its
        // registration, as one attachAll per cluster.  Attaching is
        // idempotent, so N stays equal to the live membership; before
        // the fix this heartbeat inflated N by |cluster| every epoch
        // and ground the controllers to a halt.  Once the members are
        // registered the call is one lookup plus a pointer compare.
        registry_.attachAll(c.goal.metric, c.controllers);
        stats_.attach_calls += c.members.size();
        double aggregate = 0.0;
        for (const TenantNode *n : c.members)
            aggregate += n->localMetric();
        if (c.goal.violatedBy(aggregate))
            ++stats_.aggregate_violations;
        // Fan the frozen sibling sum back out: each member tracks
        // (others + own live metric) against the cluster goal until
        // the next epoch refreshes the snapshot.
        for (TenantNode *n : c.members)
            n->setClusterView(aggregate - n->localMetric());
        stats_.fanouts += c.members.size();
    }
    ++stats_.epochs;
    stats_.wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
}

double
FleetCoordinator::maxInteractionFactor() const
{
    double max_n = 0.0;
    for (const Cluster &c : clusters_)
        for (const Controller *ctl : c.controllers)
            max_n = std::max(max_n, ctl->params().interactionFactor);
    return max_n;
}

} // namespace smartconf::fleet
