#include "fleet/fleet.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>

#include "exec/thread_pool.h"

namespace smartconf::fleet {
namespace {

// The element a full sort would put at rank q * (n - 1), selected in
// place: @p v is reordered, so read anything order-sensitive first.
double
percentile(std::vector<double> &v, double q)
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

    std::vector<TenantNode> nodes;
    nodes.reserve(n_tenants);
    for (std::uint32_t i = 0; i < n_tenants; ++i)
        nodes.emplace_back(i, archs[i % archs.size()], base,
                           params.smart);

    // Capacity-class tenants join fixed-size clusters per metric, in
    // tenant-id order (the pinned aggregation order).  The cluster
    // goal is headroom * sum of member goals: members cannot all sit
    // at their local goals at once, so the super-hard split binds.
    FleetCoordinator coord;
    std::uint64_t clustered_tenants = 0;
    if (params.smart) {
        std::map<std::string, std::vector<TenantNode *>> pending;
        const auto closeCluster =
            [&](const std::string &metric,
                std::vector<TenantNode *> &members) {
                double goal_sum = 0.0;
                for (const TenantNode *n : members)
                    goal_sum += n->archetype().goal_value;
                Goal g;
                g.metric = "fleet/" + metric + "/" +
                           std::to_string(coord.clusterCount());
                g.value = params.cluster_headroom * goal_sum;
                g.hard = true;
                g.superHard = true;
                const std::size_t id = coord.addCluster(g);
                for (TenantNode *n : members)
                    coord.join(id, n);
                clustered_tenants += members.size();
                members.clear();
            };
        for (TenantNode &n : nodes) {
            if (!n.archetype().capacity_class)
                continue;
            auto &bucket = pending[n.archetype().metric];
            bucket.push_back(&n);
            if (bucket.size() >= params.cluster_size)
                closeCluster(n.archetype().metric, bucket);
        }
        // Trailing partial clusters still coordinate (N = size); a
        // single leftover tenant keeps its local goal instead.
        for (auto &[metric, bucket] : pending)
            if (bucket.size() >= 2)
                closeCluster(metric, bucket);
    }

    // Stagger the six archetypes' diurnal peaks across the day so the
    // fleet-wide load (and the clusters' aggregate pressure) moves.
    std::array<workload::DiurnalCurve, 6> curves;
    for (std::size_t a = 0; a < curves.size(); ++a) {
        curves[a] = params.diurnal;
        curves[a].phase += static_cast<sim::Tick>(
            static_cast<std::size_t>(params.diurnal.period) * a /
            curves.size());
    }

    sim::ZipfianGenerator zipf(n_tenants, params.zipf_theta);
    const std::size_t draws = static_cast<std::size_t>(std::llround(
        params.draws_per_tenant * static_cast<double>(n_tenants)));
    // Epoch e ticks on counts while its parallelFor draws epoch e + 1's
    // traffic into next_counts; the buffers swap at the epoch's end.
    std::vector<std::uint32_t> counts(n_tenants);
    std::vector<std::uint32_t> next_counts(n_tenants);
    drawTraffic(zipf, traffic, draws, counts);

    const std::size_t groups =
        std::min<std::size_t>(kFleetGroups, n_tenants);
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
        // g + 1 ticks group g, which owns tenants [lo, hi) and no other
        // state, so any executor schedule produces identical results.
        const auto body = [&](std::size_t k) {
            if (k == 0) {
                if (e1 < params.ticks)
                    drawTraffic(zipf, traffic, draws, next_counts);
                return;
            }
            const std::size_t g = k - 1;
            const std::size_t lo = g * n_tenants / groups;
            const std::size_t hi = (g + 1) * n_tenants / groups;
            for (std::size_t i = lo; i < hi; ++i) {
                const double base_load =
                    static_cast<double>(counts[i]) / epoch_len;
                nodes[i].tickEpoch(
                    e0, e1, base_load,
                    &diurnal[(i % curves.size()) * max_epoch_len],
                    params.control_period);
            }
        };
        if (params.pool)
            params.pool->parallelFor(groups + 1, body);
        else
            for (std::size_t k = 0; k <= groups; ++k)
                body(k);
        counts.swap(next_counts);
        ++epochs;
    }

    // Serial reduction in tenant-id order.
    FleetResult r;
    r.tenants = n_tenants;
    r.ticks = static_cast<std::uint64_t>(params.ticks);
    r.epochs = epochs;

    std::vector<double> rates;
    std::vector<double> settle;
    rates.reserve(n_tenants);
    settle.reserve(n_tenants);
    std::uint64_t violated_tenants = 0;
    double conf_rel_sum = 0.0;
    std::uint64_t checksum = 1469598103934665603ULL; // FNV offset
    std::array<ArchetypeRow, 6> rows;
    for (std::size_t a = 0; a < rows.size(); ++a)
        rows[a].scenario_id = archs[a].scenario_id;

    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const TenantNode &node = nodes[i];
        const TenantStats &s = node.stats();
        const double ticks_d =
            s.ticks ? static_cast<double>(s.ticks) : 1.0;
        const double rate =
            static_cast<double>(s.violations) / ticks_d;
        const double conf_rel = (s.conf_sum / ticks_d) /
                                node.archetype().conf_default;
        rates.push_back(rate);
        settle.push_back(
            static_cast<double>(s.last_unsettled) + 1.0);
        if (s.violations > 0)
            ++violated_tenants;
        conf_rel_sum += conf_rel;
        checksum = node.foldChecksum(checksum);

        ArchetypeRow &row = rows[i % rows.size()];
        ++row.tenants;
        row.violation_rate += rate;
        row.mean_conf_rel += conf_rel;
    }

    double rate_sum = 0.0;
    for (const double v : rates)
        rate_sum += v;
    r.violation_rate_mean =
        rate_sum / static_cast<double>(n_tenants);
    r.violation_rate_p99 = percentile(rates, 0.99);
    r.tenants_violated_frac = static_cast<double>(violated_tenants) /
                              static_cast<double>(n_tenants);
    r.convergence_p50_ticks = percentile(settle, 0.50);
    r.convergence_p99_ticks = percentile(settle, 0.99);
    r.mean_conf_rel = conf_rel_sum / static_cast<double>(n_tenants);

    r.clusters = coord.clusterCount();
    r.clustered_tenants = clustered_tenants;
    r.max_interaction = coord.maxInteractionFactor();
    r.coord = coord.stats();
    r.checksum = checksum;

    for (ArchetypeRow &row : rows) {
        if (row.tenants) {
            row.violation_rate /= static_cast<double>(row.tenants);
            row.mean_conf_rel /= static_cast<double>(row.tenants);
        }
        r.per_archetype.push_back(row);
    }

    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
    return r;
}

} // namespace smartconf::fleet
