#include "fleet/tenant.h"

#include <algorithm>
#include <bit>

#include "scenarios/scenario.h"

namespace smartconf::fleet {
namespace {

/**
 * Derive the six archetypes from the case-study catalog.  Everything
 * scenario-specific (id, conf name, metric, hard flag, patch default)
 * comes straight from ScenarioInfo; the fleet-unit constants are
 * normalized so every archetype's goal is 100 units and the patched
 * default configuration contributes 55 units of metric — the same
 * mid-band operating point regardless of whether the underlying conf
 * is measured in MB (CA6059), queue slots (HB3813) or bytes (HD4995).
 * The small per-index spreads keep the six plants dynamically distinct
 * (different headroom, load sensitivity, sensor quality and pole) so
 * per-archetype violation rates differ for a real reason.
 */
std::array<TenantArchetype, 6>
deriveArchetypes()
{
    std::array<TenantArchetype, 6> out;
    const auto catalog = scenarios::makeAllScenarios();
    for (std::size_t i = 0; i < out.size() && i < catalog.size(); ++i) {
        const auto &info = catalog[i]->info();
        TenantArchetype &a = out[i];
        a.scenario_id = info.id;
        a.conf_name = info.conf_name;
        a.metric = info.metric_name;
        // Single-node SmartConf distinguishes hard from best-effort
        // goals; a multi-tenant platform does not get that luxury —
        // every tenant goal is a contractual SLO, so the fleet runs
        // all archetypes with the hard-goal machinery (virtual goal +
        // context-aware poles).  Without the virtual-goal margin the
        // soft-goal archetypes would sit *on* their goal and sensor
        // noise alone would flag half their ticks as violations.
        a.hard = true;
        a.capacity_class =
            info.metric_name.find("memory") != std::string::npos ||
            info.metric_name.find("disk") != std::string::npos;
        a.goal_value = 100.0;
        a.conf_default = info.patch_default;
        a.conf_max = 4.0 * info.patch_default;
        a.alpha = 55.0 / info.patch_default;
        const double k = static_cast<double>(i);
        a.base_metric = 14.0 + 2.0 * k;
        a.load_gain = 2.0 + 0.3 * k;
        a.load_sat = 20.0;
        a.noise = 1.0 + 0.2 * k;
        a.pole = 0.85 + 0.015 * k;
        a.lambda = 0.05;
    }
    return out;
}

} // namespace

const std::array<TenantArchetype, 6> &
archetypes()
{
    static const std::array<TenantArchetype, 6> table =
        deriveArchetypes();
    return table;
}

TenantNode::TenantNode(std::uint32_t id, const TenantArchetype &arch,
                       const sim::Rng &fleet_base, bool smart)
    : arch_(&arch),
      rng_(fleet_base.fork(id)),
      conf_(arch.conf_default),
      band_goal_(arch.goal_value)
{
    // The profiled alpha is never exactly the plant's: give every
    // tenant up to +-10% model error so the controllers run with the
    // gain mismatch the paper's lambda margin exists to absorb.
    plant_alpha_ = arch.alpha * rng_.uniform(0.9, 1.1);
    // Warm start at the zero-load plant equilibrium: fleet tenants are
    // long-running services, not cold boots, so convergence measures
    // adaptation to traffic rather than a ramp from an all-zero state
    // (which made every cluster overshoot its goal for one full epoch
    // of stale fan-out before the first correction).
    metric_ = arch.base_metric + plant_alpha_ * conf_;
    if (!smart)
        return;
    ControllerParams p;
    p.alpha = arch.alpha;
    p.pole = arch.pole;
    p.lambda = arch.lambda;
    p.confMin = 0.0;
    p.confMax = arch.conf_max;
    // No metric name, so building the node allocates nothing; the name
    // lives once, in the archetype.
    Goal g;
    g.value = arch.goal_value;
    g.hard = arch.hard;
    controller_.emplace(p, g);
}

void
TenantNode::bindCluster(const Goal &cluster_goal, double *metric_slot,
                        const double *view_slot)
{
    if (!controller_)
        return;
    Goal bound;
    bound.value = cluster_goal.value;
    bound.direction = cluster_goal.direction;
    bound.hard = cluster_goal.hard;
    bound.superHard = cluster_goal.superHard;
    controller_->setGoal(bound);
    band_goal_ = cluster_goal.value;
    metric_slot_ = metric_slot;
    view_slot_ = view_slot;
    publish();
}

void
TenantNode::tick(sim::Tick now, double load)
{
    step(now, load, rng_.gaussian(0.0, arch_->noise));
    publish();
}

void
TenantNode::tickEpoch(sim::Tick e0, sim::Tick e1, double base_load,
                      const double *diurnal, sim::Tick control_period)
{
    constexpr sim::Tick kNoiseChunk = 64;
    double noise[kNoiseChunk];
    for (sim::Tick c0 = e0; c0 < e1; c0 += kNoiseChunk) {
        const sim::Tick c1 = std::min(c0 + kNoiseChunk, e1);
        rng_.gaussianBatch(0.0, arch_->noise, noise,
                           static_cast<std::size_t>(c1 - c0));
        for (sim::Tick t = c0; t < c1; ++t) {
            step(t, base_load * diurnal[t - e0], noise[t - c0]);
            if (controller_ && (t + 1) % control_period == 0)
                controlTick();
        }
    }
    publish();
}

void
TenantNode::step(sim::Tick now, double load, double noise)
{
    // Saturating load term: a hot Zipf-head tenant sees hundreds of
    // ops/tick, but queues and caches bound how much of that converts
    // into metric pressure — without the bend the head tenants would
    // be structurally unable to meet any goal and the violation tail
    // would measure the traffic skew, not the controllers.
    const double load_term = arch_->load_gain * load /
                             (1.0 + load / arch_->load_sat);
    const double target =
        arch_->base_metric + plant_alpha_ * conf_ + load_term;
    metric_ += 0.35 * (target - metric_) + noise;
    if (metric_ < 0.0)
        metric_ = 0.0;

    ++stats_.ticks;
    stats_.conf_sum += conf_;
    // Violations are scored against the goal this tenant's controller
    // actually enforces: the cluster-wide goal for clustered tenants
    // (that is the promise the super-hard split exists to keep), the
    // local goal otherwise.
    const double view = metricView();
    if (view > band_goal_)
        ++stats_.violations;
    // Settling is judged on a smoothed view (time constant ~10 ticks)
    // so single noise spikes don't reset every tenant's convergence
    // clock to the end of the run: a tenant has converged once the
    // smoothed view holds inside [0.75*G, 1.02*G].
    view_smooth_ = stats_.ticks == 1
                       ? view
                       : 0.9 * view_smooth_ + 0.1 * view;
    if (view_smooth_ > 1.02 * band_goal_ ||
        view_smooth_ < 0.75 * band_goal_)
        stats_.last_unsettled = now;
}

void
TenantNode::controlTick()
{
    if (!controller_)
        return;
    conf_ = controller_->update(metricView(), conf_);
    ++stats_.control_updates;
}

ChecksumWords
TenantNode::checksumWords() const
{
    return {std::bit_cast<std::uint64_t>(metric_),
            std::bit_cast<std::uint64_t>(conf_), stats_.violations};
}

std::uint64_t
TenantNode::foldChecksum(std::uint64_t h) const
{
    for (const std::uint64_t w : checksumWords())
        h = fnv1a(h, w);
    return h;
}

} // namespace smartconf::fleet
