#ifndef SMARTCONF_FLEET_TENANT_H_
#define SMARTCONF_FLEET_TENANT_H_

/**
 * @file
 * One tenant node of the fleet simulation.
 *
 * The single-node layers run one scenario with one controller; the
 * fleet layer instantiates thousands of *tenants*, each a reduced
 * SmartConf loop: a first-order plant (the same alpha-linear model the
 * paper profiles, Eq. 1) driven by that tenant's share of Zipf-skewed
 * fleet traffic, a sensor (the plant state plus gaussian sensor
 * noise), and its own integral controller.  Tenants are derived from
 * the six case-study scenarios: each TenantArchetype normalizes one
 * scenario's configuration/metric pair into fleet units so a mixed
 * fleet exercises all six configuration shapes at once.
 *
 * Tenants are **shared-nothing**: every node owns its Rng stream
 * (forked from the fleet seed by tenant id), its plant state and its
 * controller, so an epoch's ticks for disjoint tenants can fan out
 * across the pool (exec::ThreadPool) with byte-identical results at
 * any worker count.  The only cross-tenant coupling is the
 * epoch-batched cluster view installed by the FleetCoordinator
 * between epochs (see fleet/coordinator.h).
 */

#include <array>
#include <cstdint>
#include <string>

#include "core/controller.h"
#include "core/goal.h"
#include "sim/clock.h"
#include "sim/rng.h"

namespace smartconf::fleet {

/**
 * A scenario family normalized into fleet units.
 *
 * goal_value is 100 "units" for every archetype (MB for the capacity
 * classes, ms for the latency classes); alpha is scaled so the
 * scenario's patched default configuration contributes the same
 * mid-band metric share it does in the paper's plants.  The
 * per-archetype spreads (base metric, load gain, noise, pole) keep
 * the six families dynamically distinct so per-archetype violation
 * rates mean something.
 */
struct TenantArchetype
{
    std::string scenario_id; ///< "CA6059" ... "MR2820"
    std::string conf_name;   ///< the PerfConf this tenant adjusts
    std::string metric;      ///< goal metric name
    bool hard = false;       ///< hard goal (virtual-goal machinery)

    /**
     * Capacity-class metrics (memory, disk) *sum* across co-located
     * tenants, so these archetypes join cluster-wide super-hard goals;
     * latency-class metrics do not aggregate and stay tenant-local.
     */
    bool capacity_class = false;

    double goal_value = 100.0; ///< per-tenant goal, normalized units
    double conf_default = 0.0; ///< scenario patch default (conf units)
    double conf_max = 0.0;     ///< controller clamp (4x patch default)
    double alpha = 0.0;        ///< metric units per conf unit
    double base_metric = 0.0;  ///< zero-conf, zero-load metric level
    double load_gain = 0.0;    ///< metric units per op/tick (initial)
    double load_sat = 0.0;     ///< ops/tick where the load term bends
    double noise = 0.0;        ///< sensor noise stddev
    double pole = 0.0;         ///< controller pole
    double lambda = 0.0;       ///< profiling instability margin
};

/** The six archetypes, Table 6 order, derived from makeAllScenarios(). */
const std::array<TenantArchetype, 6> &archetypes();

/** Per-tenant accounting surfaced by FleetResult. */
struct TenantStats
{
    std::uint64_t ticks = 0;
    std::uint64_t violations = 0;      ///< tracked goal exceeded
    std::uint64_t control_updates = 0; ///< controller invocations
    sim::Tick last_unsettled = 0;      ///< last tick outside the band
    double conf_sum = 0.0;             ///< for mean-conf reporting
};

/**
 * One tenant: plant + sensor + (for smart fleets) controller.
 *
 * Tick-granular methods are called only from the epoch fan-out body
 * that owns this tenant's group; epoch-granular methods
 * (setClusterView, bindCluster) are called only from the serial
 * coordination boundary between epochs.
 */
class TenantNode
{
  public:
    /**
     * @param id         tenant index; selects the Rng fork stream.
     * @param arch       archetype (must outlive the node).
     * @param fleet_base fleet seed generator; the node forks stream id.
     * @param smart      construct a controller (false = static
     *                   baseline pinned at the archetype default).
     */
    TenantNode(std::uint32_t id, const TenantArchetype &arch,
               const sim::Rng &fleet_base, bool smart);

    /**
     * Join a cluster-wide super-hard goal: the controller retargets
     * from the local goal to @p cluster_goal, tracking the *aggregate*
     * view (frozen siblings + own metric).  Serial setup phase only.
     */
    void bindCluster(const Goal &cluster_goal);

    /** Install this epoch's frozen sibling aggregate (coordinator). */
    void setClusterView(double frozen_others)
    {
        frozen_others_ = frozen_others;
    }

    /**
     * Advance the plant one tick under @p load ops/tick and account
     * violations/settling against the local goal.
     */
    void tick(sim::Tick now, double load);

    /** Run one controller update against the current metric view. */
    void controlTick();

    /**
     * Run ticks [@p e0, @p e1) of one epoch: tick(t, base_load *
     * diurnal[t - e0]) for every t, and controlTick() after each t
     * with (t + 1) % control_period == 0 when the node is smart.  The
     * result is bit for bit that loop's; the epoch's sensor noise is
     * drawn up front with Rng::gaussianBatch into a stack buffer
     * (chunked, so any epoch length works) instead of one gaussian()
     * per tick.
     */
    void tickEpoch(sim::Tick e0, sim::Tick e1, double base_load,
                   const double *diurnal, sim::Tick control_period);

    /** Metric the controller sees: cluster aggregate when clustered. */
    double metricView() const
    {
        return clustered_ ? frozen_others_ + metric_ : metric_;
    }

    double localMetric() const { return metric_; }
    double conf() const { return conf_; }
    bool clustered() const { return clustered_; }
    bool smart() const { return controller_.has_value(); }
    Controller *controller()
    {
        return controller_ ? &*controller_ : nullptr;
    }
    const TenantArchetype &archetype() const { return *arch_; }
    const TenantStats &stats() const { return stats_; }

    /** Fold this node's end state into @p h (FNV-1a, pinned order). */
    std::uint64_t foldChecksum(std::uint64_t h) const;

  private:
    /** tick() with this tick's sensor noise already drawn. */
    void step(sim::Tick now, double load, double noise);

    const TenantArchetype *arch_;
    sim::Rng rng_;
    double plant_alpha_;  ///< true gain (jittered vs profiled alpha)
    double metric_ = 0.0; ///< plant state = sensed metric
    double conf_;
    double frozen_others_ = 0.0;
    double view_smooth_ = 0.0; ///< settling detector state
    double band_goal_; ///< settling band reference (local goal)
    bool clustered_ = false;
    std::optional<Controller> controller_;
    TenantStats stats_;
};

} // namespace smartconf::fleet

#endif // SMARTCONF_FLEET_TENANT_H_
