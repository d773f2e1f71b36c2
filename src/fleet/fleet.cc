#include "fleet/fleet.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include <sys/mman.h>

#include "exec/thread_pool.h"

namespace smartconf::fleet {
namespace {

// The element a full sort would put at rank q * (n - 1), selected in
// place: @p v is reordered, so read anything order-sensitive first.
double
percentile(std::span<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(
                                     q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

// One epoch's per-tenant traffic: @p draws Zipf picks, drawn and
// counted in cache-sized chunks so the words never leave L1 between
// the two.  The traffic Rng is one serial stream, so the counts equal
// those of a single sampleBatch over the whole epoch.
void
drawTraffic(const sim::ZipfianGenerator &zipf, sim::Rng &traffic,
            std::size_t draws, std::vector<std::uint32_t> &counts)
{
    constexpr std::size_t kChunk = 4096;
    std::uint64_t chunk[kChunk];
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t done = 0; done < draws; done += kChunk) {
        const std::size_t n = std::min(kChunk, draws - done);
        zipf.sampleBatch(traffic, chunk, n);
        for (std::size_t k = 0; k < n; ++k)
            ++counts[chunk[k]];
    }
}

constexpr std::size_t kArchetypes = 6;

/**
 * The cluster layout.  Capacity-class tenants join their metric's
 * clusters of `cluster_size` in tenant-id order; a cluster's id is the
 * order in which it fills, and each metric's trailing partial cluster
 * of two or more follows in metric-name order.  A single leftover
 * tenant keeps its local goal.  The walk reads tenant ids only: no
 * tenant object and no string-keyed lookup per tenant.
 */
struct ClusterPlan
{
    static constexpr std::uint32_t kLocal = UINT32_MAX;

    struct Cluster
    {
        std::string_view metric; ///< into archetypes(), which is static
        double goal_sum = 0.0;   ///< member goals, in member order
        std::size_t size = 0;
    };

    /** Per tenant: cluster id (kLocal if none) and slot (its rank in
     *  the cluster, so slot order is tenant-id order). */
    std::vector<std::uint32_t> cluster, slot;
    std::vector<Cluster> clusters; ///< in cluster-id order
};

ClusterPlan
planClusters(const std::array<TenantArchetype, kArchetypes> &archs,
             std::size_t tenants, std::size_t cluster_size)
{
    // Pending members per metric, found per archetype, not per tenant.
    using Pending = std::map<std::string_view, std::vector<std::uint32_t>>;
    Pending pending;
    std::array<Pending::value_type *, kArchetypes> bucket{};
    for (std::size_t a = 0; a < kArchetypes; ++a)
        if (archs[a].capacity_class)
            bucket[a] = &*pending.try_emplace(archs[a].metric).first;

    ClusterPlan plan;
    plan.cluster.assign(tenants, ClusterPlan::kLocal);
    plan.slot.assign(tenants, 0);
    const auto close = [&](Pending::value_type &b) {
        const auto id = static_cast<std::uint32_t>(plan.clusters.size());
        double goal_sum = 0.0;
        for (std::size_t k = 0; k < b.second.size(); ++k) {
            const std::uint32_t i = b.second[k];
            goal_sum += archs[i % kArchetypes].goal_value;
            plan.cluster[i] = id;
            plan.slot[i] = static_cast<std::uint32_t>(k);
        }
        plan.clusters.push_back({b.first, goal_sum, b.second.size()});
        b.second.clear();
    };
    for (std::size_t i = 0; i < tenants; ++i) {
        Pending::value_type *b = bucket[i % kArchetypes];
        if (!b)
            continue;
        b->second.push_back(static_cast<std::uint32_t>(i));
        if (b->second.size() >= cluster_size)
            close(*b);
    }
    for (Pending::value_type &b : pending)
        if (b.second.size() >= 2)
            close(b);
    return plan;
}

/**
 * The fleet's tenants in one block of storage, built and destroyed
 * group by group inside the pool; group g owns ids [lo(g), hi(g)).
 * A group's tenants are alive exactly while its flag is set, so
 * release() ends those that are, after a throwing build too.
 *
 * The block is a private mapping of its own, returned to the system
 * when the run ends.  Taken from the heap, a 100k-tenant block (32 MB)
 * went back as free space at the heap's top, which the process's later
 * allocations split, so a later run's block no longer fit there and
 * the heap grew by most of a block (DESIGN.md §7).
 */
class TenantBlock
{
  public:
    TenantBlock(std::size_t tenants, std::size_t groups)
        : tenants_(tenants), groups_(groups), alive_(groups, 0)
    {
        void *p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        nodes_ = static_cast<TenantNode *>(p);
    }

    ~TenantBlock() { release(); }

    TenantBlock(const TenantBlock &) = delete;
    TenantBlock &operator=(const TenantBlock &) = delete;

    std::size_t lo(std::size_t g) const { return g * tenants_ / groups_; }
    std::size_t hi(std::size_t g) const
    {
        return (g + 1) * tenants_ / groups_;
    }
    TenantNode &operator[](std::size_t i) { return nodes_[i]; }

    /** Construct group @p g's tenants in id order. */
    void build(std::size_t g,
               const std::array<TenantArchetype, kArchetypes> &archs,
               const sim::Rng &base, bool smart)
    {
        std::size_t i = lo(g);
        try {
            for (; i < hi(g); ++i)
                ::new (static_cast<void *>(nodes_ + i))
                    TenantNode(static_cast<std::uint32_t>(i),
                               archs[i % kArchetypes], base, smart);
        } catch (...) {
            while (i > lo(g))
                nodes_[--i].~TenantNode();
            throw;
        }
        alive_[g] = 1;
    }

    /** End group @p g's tenants. */
    void destroy(std::size_t g)
    {
        for (std::size_t i = lo(g); i < hi(g); ++i)
            nodes_[i].~TenantNode();
        alive_[g] = 0;
    }

    /** End the groups still alive and free the storage. */
    void release()
    {
        if (!nodes_)
            return;
        for (std::size_t g = 0; g < groups_; ++g)
            if (alive_[g])
                destroy(g);
        ::munmap(nodes_, bytes());
        nodes_ = nullptr;
    }

  private:
    std::size_t bytes() const { return tenants_ * sizeof(TenantNode); }

    TenantNode *nodes_ = nullptr;
    std::size_t tenants_;
    std::size_t groups_;
    std::vector<unsigned char> alive_; ///< one flag per group
};

/** Run body(k) for every k in [0, n), on the pool or in a plain loop. */
template <typename Body>
void
forEachIndex(exec::ThreadPool *pool, std::size_t n, Body &&body)
{
    if (pool)
        pool->parallelFor(n, body);
    else
        for (std::size_t k = 0; k < n; ++k)
            body(k);
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

FleetResult
runFleet(const FleetParams &params)
{
    if (params.tenants == 0 || params.ticks <= 0 ||
        params.epoch_ticks <= 0 || params.control_period <= 0)
        throw std::invalid_argument(
            "runFleet: tenants/ticks/epoch_ticks/control_period must "
            "be positive");
    // A one-member cluster would be a super-hard goal 10% tighter than
    // the tenant's own, breaking the rule that a lone tenant keeps its
    // local goal.
    if (params.cluster_size < 2)
        throw std::invalid_argument(
            "runFleet: cluster_size must be at least 2");
    // Negative or NaN draws would wrap to a huge size_t buffer.
    if (!(std::isfinite(params.draws_per_tenant) &&
          params.draws_per_tenant >= 0.0))
        throw std::invalid_argument(
            "runFleet: draws_per_tenant must be finite and >= 0");
    if (!(std::isfinite(params.cluster_headroom) &&
          params.cluster_headroom > 0.0))
        throw std::invalid_argument(
            "runFleet: cluster_headroom must be finite and > 0");
    if (!(params.zipf_theta >= 0.0 && params.zipf_theta < 1.0))
        throw std::invalid_argument(
            "runFleet: zipf_theta must lie in [0, 1)");

    const auto wall0 = std::chrono::steady_clock::now();
    const std::size_t n_tenants = params.tenants;
    const auto &archs = archetypes();

    sim::Rng base(params.seed);
    // Traffic draws come off a private stream whose id cannot collide
    // with any tenant's fork (tenant ids are 32-bit).
    sim::Rng traffic = base.fork(0xF1EE7000000001ULL);
    sim::ZipfianGenerator zipf(n_tenants, params.zipf_theta);
    const std::size_t draws = static_cast<std::size_t>(std::llround(
        params.draws_per_tenant * static_cast<double>(n_tenants)));
    // Epoch e ticks on counts while its parallelFor draws epoch e + 1's
    // traffic into next_counts; the buffers swap at the epoch's end.
    std::vector<std::uint32_t> counts(n_tenants);
    std::vector<std::uint32_t> next_counts(n_tenants);

    const auto setup0 = std::chrono::steady_clock::now();

    // Capacity-class tenants join fixed-size clusters per metric, in
    // tenant-id order (the pinned aggregation order).  The cluster
    // goal is headroom * sum of member goals: members cannot all sit
    // at their local goals at once, so the super-hard split binds.
    // The layout and the goals come from tenant ids alone; the name
    // lives in the coordinator, not in the tenants.
    FleetCoordinator coord;
    const std::size_t groups =
        std::min<std::size_t>(kFleetGroups, n_tenants);
    TenantBlock nodes(n_tenants, groups);
    std::uint64_t clustered_tenants = 0;
    {
        ClusterPlan plan;
        if (params.smart)
            plan = planClusters(archs, n_tenants, params.cluster_size);
        for (const ClusterPlan::Cluster &pc : plan.clusters) {
            Goal g;
            g.metric = "fleet/" + std::string(pc.metric) + "/" +
                       std::to_string(coord.clusterCount());
            g.value = params.cluster_headroom * pc.goal_sum;
            g.hard = true;
            g.superHard = true;
            coord.addCluster(std::move(g), pc.size);
            clustered_tenants += pc.size;
        }

        // Build every tenant in place and bind it into its cluster
        // slot, group by group in the pool, with the epoch bodies'
        // index layout: index 0 draws epoch 0's traffic, index g + 1
        // builds group g.  A slot is the tenant's rank in its cluster,
        // so the join order is tenant-id order at any schedule.
        forEachIndex(params.pool, groups + 1, [&](std::size_t k) {
            if (k == 0) {
                drawTraffic(zipf, traffic, draws, counts);
                return;
            }
            const std::size_t g = k - 1;
            nodes.build(g, archs, base, params.smart);
            if (plan.clusters.empty())
                return;
            for (std::size_t i = nodes.lo(g); i < nodes.hi(g); ++i)
                if (plan.cluster[i] != ClusterPlan::kLocal)
                    coord.join(plan.cluster[i], plan.slot[i], &nodes[i]);
        });
    }
    const double setup_wall_ms = msSince(setup0);

    // Stagger the six archetypes' diurnal peaks across the day so the
    // fleet-wide load (and the clusters' aggregate pressure) moves.
    std::array<workload::DiurnalCurve, kArchetypes> curves;
    for (std::size_t a = 0; a < curves.size(); ++a) {
        curves[a] = params.diurnal;
        curves[a].phase += static_cast<sim::Tick>(
            static_cast<std::size_t>(params.diurnal.period) * a /
            curves.size());
    }

    std::uint64_t epochs = 0;

    // Diurnal multipliers of the current epoch, one row of epoch length
    // per archetype: every tenant of an archetype shares its curve, so
    // the table replaces a cos() per tenant tick with one per
    // (archetype, tick).
    const std::size_t max_epoch_len = static_cast<std::size_t>(
        std::min(params.epoch_ticks, params.ticks));
    std::vector<double> diurnal(curves.size() * max_epoch_len);

    for (sim::Tick e0 = 0; e0 < params.ticks;
         e0 += params.epoch_ticks) {
        const sim::Tick e1 =
            std::min<sim::Tick>(e0 + params.epoch_ticks, params.ticks);
        // Serial coordination boundary: cluster aggregation + frozen
        // fan-out, then this epoch's diurnal table.
        if (params.smart)
            coord.runEpoch();
        const double epoch_len = static_cast<double>(e1 - e0);
        for (std::size_t a = 0; a < curves.size(); ++a)
            for (sim::Tick t = e0; t < e1; ++t)
                diurnal[a * max_epoch_len +
                        static_cast<std::size_t>(t - e0)] =
                    curves[a].at(t);

        // Parallel epoch body.  Index 0 draws the next epoch's traffic:
        // it reads no tenant state and is the only user of the traffic
        // Rng, and as the longest index it is claimed first.  Index
        // g + 1 ticks group g, which owns its tenants and no other
        // state (a clustered tenant writes only its own metric slot),
        // so any executor schedule produces identical results.
        forEachIndex(params.pool, groups + 1, [&](std::size_t k) {
            if (k == 0) {
                if (e1 < params.ticks)
                    drawTraffic(zipf, traffic, draws, next_counts);
                return;
            }
            const std::size_t g = k - 1;
            for (std::size_t i = nodes.lo(g); i < nodes.hi(g); ++i) {
                const double base_load =
                    static_cast<double>(counts[i]) / epoch_len;
                nodes[i].tickEpoch(
                    e0, e1, base_load,
                    &diurnal[(i % curves.size()) * max_epoch_len],
                    params.control_period);
            }
        });
        counts.swap(next_counts);
        ++epochs;
    }

    const auto reduce0 = std::chrono::steady_clock::now();
    FleetResult r;
    r.tenants = n_tenants;
    r.ticks = static_cast<std::uint64_t>(params.ticks);
    r.epochs = epochs;
    r.clusters = coord.clusterCount();
    r.clustered_tenants = clustered_tenants;
    r.max_interaction = coord.maxInteractionFactor();
    r.coord = coord.stats();

    // The pool gathers each tenant's results into dense arrays and
    // ends the tenant; the fold below walks the arrays in tenant-id
    // order, so every sum and the checksum keep their pinned order.
    // The arrays start uninitialized: their pages are first touched
    // by the groups that fill them.
    const auto rates = std::make_unique_for_overwrite<double[]>(n_tenants);
    const auto settle =
        std::make_unique_for_overwrite<double[]>(n_tenants);
    const auto conf_rel =
        std::make_unique_for_overwrite<double[]>(n_tenants);
    const auto words =
        std::make_unique_for_overwrite<ChecksumWords[]>(n_tenants);
    forEachIndex(params.pool, groups, [&](std::size_t g) {
        for (std::size_t i = nodes.lo(g); i < nodes.hi(g); ++i) {
            const TenantNode &node = nodes[i];
            const TenantStats &s = node.stats();
            const double ticks_d =
                s.ticks ? static_cast<double>(s.ticks) : 1.0;
            rates[i] = static_cast<double>(s.violations) / ticks_d;
            conf_rel[i] = (s.conf_sum / ticks_d) /
                          node.archetype().conf_default;
            settle[i] = static_cast<double>(s.last_unsettled) + 1.0;
            words[i] = node.checksumWords();
        }
        nodes.destroy(g);
    });
    nodes.release();

    std::uint64_t violated_tenants = 0;
    double rate_sum = 0.0;
    double conf_rel_sum = 0.0;
    std::uint64_t checksum = 1469598103934665603ULL; // FNV offset
    std::array<ArchetypeRow, kArchetypes> rows;
    for (std::size_t a = 0; a < rows.size(); ++a)
        rows[a].scenario_id = archs[a].scenario_id;
    for (std::size_t i = 0; i < n_tenants; ++i) {
        if (rates[i] > 0.0) // at least one violation
            ++violated_tenants;
        rate_sum += rates[i];
        conf_rel_sum += conf_rel[i];
        for (const std::uint64_t w : words[i])
            checksum = fnv1a(checksum, w);

        ArchetypeRow &row = rows[i % rows.size()];
        ++row.tenants;
        row.violation_rate += rates[i];
        row.mean_conf_rel += conf_rel[i];
    }

    r.violation_rate_mean =
        rate_sum / static_cast<double>(n_tenants);
    r.violation_rate_p99 =
        percentile(std::span(rates.get(), n_tenants), 0.99);
    r.tenants_violated_frac = static_cast<double>(violated_tenants) /
                              static_cast<double>(n_tenants);
    r.convergence_p50_ticks =
        percentile(std::span(settle.get(), n_tenants), 0.50);
    r.convergence_p99_ticks =
        percentile(std::span(settle.get(), n_tenants), 0.99);
    r.mean_conf_rel = conf_rel_sum / static_cast<double>(n_tenants);
    r.checksum = checksum;

    for (ArchetypeRow &row : rows) {
        if (row.tenants) {
            row.violation_rate /= static_cast<double>(row.tenants);
            row.mean_conf_rel /= static_cast<double>(row.tenants);
        }
        r.per_archetype.push_back(row);
    }

    r.setup_wall_ms = setup_wall_ms;
    r.reduce_wall_ms = msSince(reduce0);
    r.wall_ms = msSince(wall0);
    return r;
}

} // namespace smartconf::fleet
