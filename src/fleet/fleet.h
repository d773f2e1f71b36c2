#ifndef SMARTCONF_FLEET_FLEET_H_
#define SMARTCONF_FLEET_FLEET_H_

/**
 * @file
 * Fleet-scale multi-tenant simulation.
 *
 * runFleet() instantiates `tenants` TenantNodes (cycling the six
 * scenario archetypes), groups the capacity-class tenants into
 * fixed-size clusters under super-hard cluster goals, and advances
 * everything in epochs:
 *
 *   serial epoch boundary          parallel epoch body
 *   ---------------------          -------------------
 *   FleetCoordinator.runEpoch()    one parallelFor over 1 + groups
 *   diurnal table: 6 archetypes    indices.  Index 0: the NEXT
 *   x epoch ticks                  epoch's Zipf draw -> per-tenant
 *                                  traffic counts.  Index g + 1:
 *                                  tenant group g runs
 *                                  TenantNode::tickEpoch for its
 *                                  tenants (plants, controllers and
 *                                  one batched noise draw per tenant)
 *
 * Determinism: the tenant->group map is a pure function of the tenant
 * count (kFleetGroups contiguous ranges), every tenant owns a private
 * Rng stream forked by tenant id, and groups share no mutable state —
 * so the result is byte-identical at any `--jobs`, like the logical
 * lane layout of a run's workload (workload/sharded.h).
 *
 * Traffic: one ZipfianGenerator over the tenant population (YCSB skew,
 * the alias-table sampler) draws each epoch's ops; per-tenant load is
 * the tenant's draw count shaped by a diurnal curve whose phase is
 * staggered per archetype, so the six tenant families peak at
 * different times of the simulated day.  The draw reads no tenant
 * state, so it runs one epoch ahead: epoch 0's before the loop, epoch
 * e + 1's inside epoch e's body, into a second count buffer that
 * swaps in at the epoch's end.  It draws and counts in cache-sized
 * chunks off one serial traffic Rng used by no other index, so every
 * count is the same as one batch drawn at the epoch boundary.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/coordinator.h"
#include "fleet/tenant.h"
#include "sim/clock.h"
#include "workload/phases.h"

namespace smartconf::exec {
class ThreadPool;
}

namespace smartconf::fleet {

/** Logical epoch-body groups; fixed so grouping never depends on the
 *  worker count (the same trick as workload::kShards). */
inline constexpr std::size_t kFleetGroups = 64;

struct FleetParams
{
    std::uint32_t tenants = 1000;
    sim::Tick ticks = 240;        ///< one simulated day by default
    sim::Tick epoch_ticks = 20;   ///< coordination epoch length
    sim::Tick control_period = 4; ///< controller invocation period
    std::uint64_t seed = 1;

    double zipf_theta = 0.99;      ///< tenant-popularity skew, [0, 1)
    double draws_per_tenant = 8.0; ///< mean traffic draws per epoch

    std::uint32_t cluster_size = 32; ///< tenants per capacity cluster, >= 2
    /**
     * Cluster goal = headroom * sum of member local goals (finite,
     * > 0).  Below 1.0 the members cannot all sit at their local goals
     * simultaneously, so the super-hard split has real work to do.
     */
    double cluster_headroom = 0.9;

    bool smart = true; ///< false = static baseline (confs pinned)

    workload::DiurnalCurve diurnal{0.25, 240, 0};

    /**
     * Executor for the epoch-body fan-out (`--jobs`).  Null runs the
     * groups in a plain loop on the calling thread.
     */
    exec::ThreadPool *pool = nullptr;
};

/** Violation/occupancy aggregate for one archetype's tenants. */
struct ArchetypeRow
{
    std::string scenario_id;
    std::uint64_t tenants = 0;
    double violation_rate = 0.0; ///< mean per-tenant violation rate
    double mean_conf_rel = 0.0;  ///< mean conf / archetype default
};

struct FleetResult
{
    std::uint64_t tenants = 0;
    std::uint64_t ticks = 0;
    std::uint64_t epochs = 0;

    double violation_rate_mean = 0.0; ///< mean of per-tenant rates
    double violation_rate_p99 = 0.0;  ///< 99th pct per-tenant rate
    double tenants_violated_frac = 0.0; ///< tenants with >= 1 violation
    double convergence_p50_ticks = 0.0; ///< median settle time
    double convergence_p99_ticks = 0.0; ///< tail settle time
    double mean_conf_rel = 0.0;

    std::uint64_t clusters = 0;
    std::uint64_t clustered_tenants = 0;
    double max_interaction = 0.0; ///< largest installed N

    FleetCoordinator::Stats coord; ///< epoch-batched coordination cost

    double wall_ms = 0.0;       ///< whole-run wall time
    std::uint64_t checksum = 0; ///< FNV over end state, pinned order

    std::vector<ArchetypeRow> per_archetype;
};

/**
 * Run one fleet simulation; deterministic for fixed params + seed.
 * @throws std::invalid_argument for degenerate params: zero tenants,
 *         non-positive ticks/epoch_ticks/control_period, cluster_size
 *         < 2, negative or non-finite draws_per_tenant, non-positive
 *         or non-finite cluster_headroom, zipf_theta outside [0, 1).
 */
FleetResult runFleet(const FleetParams &params);

} // namespace smartconf::fleet

#endif // SMARTCONF_FLEET_FLEET_H_
