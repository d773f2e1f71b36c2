#include "fleet/coordinator.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/controller.h"

namespace smartconf::fleet {

std::size_t
FleetCoordinator::addCluster(Goal goal, std::size_t members)
{
    registry_.declareGoal(goal);
    clusters_.push_back(Cluster{std::move(goal), metrics_.size(), members});
    metrics_.resize(metrics_.size() + members);
    views_.resize(metrics_.size());
    controllers_.resize(metrics_.size());
    return clusters_.size() - 1;
}

void
FleetCoordinator::join(std::size_t cluster, std::size_t slot,
                       TenantNode *node)
{
    const Cluster &c = clusters_[cluster];
    if (slot >= c.size)
        throw std::out_of_range("FleetCoordinator::join: slot " +
                                std::to_string(slot) +
                                " beyond the cluster's members");
    if (!node->smart())
        throw std::invalid_argument(
            "FleetCoordinator::join: a static tenant has no controller");
    const std::size_t i = c.begin + slot;
    controllers_[i] = node->controller();
    node->bindCluster(c.goal, &metrics_[i], &views_[i]);
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
    if (stats_.epochs == 0 &&
        std::find(controllers_.begin(), controllers_.end(), nullptr) !=
            controllers_.end())
        throw std::logic_error(
            "FleetCoordinator::runEpoch: a cluster slot was never joined");
    for (const Cluster &c : clusters_) {
        // Membership heartbeat: every epoch each member re-asserts its
        // registration, as one attachAll per cluster.  Attaching is
        // idempotent, so N stays equal to the live membership; before
        // the fix this heartbeat inflated N by |cluster| every epoch
        // and ground the controllers to a halt.  Once the members are
        // registered the call is one lookup plus a pointer compare.
        registry_.attachAll(
            c.goal.metric,
            std::span<Controller *const>(controllers_.data() + c.begin,
                                         c.size));
        stats_.attach_calls += c.size;
        const double *metric = metrics_.data() + c.begin;
        double aggregate = 0.0;
        for (std::size_t k = 0; k < c.size; ++k)
            aggregate += metric[k];
        if (c.goal.violatedBy(aggregate))
            ++stats_.aggregate_violations;
        // Fan the frozen sibling sum back out: each member tracks
        // (others + own live metric) against the cluster goal until
        // the next epoch refreshes the snapshot.
        double *view = views_.data() + c.begin;
        for (std::size_t k = 0; k < c.size; ++k)
            view[k] = aggregate - metric[k];
        stats_.fanouts += c.size;
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
    for (const Controller *ctl : controllers_)
        if (ctl)
            max_n = std::max(max_n, ctl->params().interactionFactor);
    return max_n;
}

} // namespace smartconf::fleet
