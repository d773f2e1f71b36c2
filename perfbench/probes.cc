#include <filesystem>
#include <functional>

#include "exec/disk_cache.h"
#include "exec/run_cache.h"
#include "fleet/tenant.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using smartconf::exec::DiskRunCache;
using smartconf::scenarios::ScenarioResult;

/** Small results in the codec and small-store probes. */
constexpr std::size_t kSmallResults = 256;

/** Median over @p reps calls of @p fn, in microseconds per call. */
double
medianUs(int reps, const std::function<void()> &fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const std::int64_t t0 = nowNs();
        fn();
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return median(us);
}

/** ~1 KB result: the index-dominated size class. */
ScenarioResult
smallResult(smartconf::sim::Rng &rng, std::size_t i)
{
    ScenarioResult r;
    r.scenario_id = "store/small" + std::to_string(i % 6);
    r.policy_label = "Static";
    r.goal_value = 100.0 + static_cast<double>(rng.below(97));
    r.tradeoff = rng.uniform(1.0, 1000.0);
    r.ops_simulated = rng.below(1u << 20);
    r.perf_series = smartconf::sim::TimeSeries("perf");
    r.conf_series = smartconf::sim::TimeSeries("conf");
    r.tradeoff_series = smartconf::sim::TimeSeries("ops");
    for (int t = 0; t < 56; ++t)
        r.perf_series.record(t, rng.uniform(0.0, 1000.0));
    return r;
}

} // namespace

Probes
probeLayers(std::uint64_t seed, const Sizes &sizes,
            smartconf::exec::ThreadPool *pool, const StoreInput &in,
            const std::string &work)
{
    Probes p;

    // Profiling runs inside every smart Scenario::run; time it alone.
    const std::uint64_t first = sweepFirstSeed(seed, 3);
    for (const std::string &id : scenarioIds()) {
        const auto scn = smartconf::scenarios::makeScenario(id);
        std::uint64_t k = 0;
        p.profile_ms.push_back(
            medianUs(3, [&] { scn->profile(first + k++); }) / 1e3);
    }

    // Fleet without controllers (the control share) and at one tick
    // (construction, clustering, reduction).
    std::vector<double> pinned, one;
    for (int i = 0; i < 3; ++i) {
        const FleetRun a = runFleetOnce(sizes.fleet_tenants, 240, seed,
                                        false, pool, nullptr);
        const FleetRun b = runFleetOnce(sizes.fleet_tenants, 1, seed, true,
                                        pool, nullptr);
        pinned.push_back(a.wall_ms);
        one.push_back(b.wall_ms);
        p.attempted += 2;
        p.failed += (a.failed ? 1 : 0) + (b.failed ? 1 : 0);
    }
    p.pinned_wall_ms = median(pinned);
    p.one_tick_ms = median(one);

    // Tenant plant and controller ticks on the benchmark's own nodes.
    {
        using smartconf::fleet::TenantNode;
        constexpr std::uint32_t kNodes = 4096;
        const auto &archs = smartconf::fleet::archetypes();
        const smartconf::sim::Rng base(seed);
        smartconf::sim::Rng rng(seed ^ 0x7e4a47ULL);
        std::vector<TenantNode> nodes;
        std::vector<double> load;
        nodes.reserve(kNodes);
        for (std::uint32_t i = 0; i < kNodes; ++i) {
            nodes.emplace_back(i, archs[i % archs.size()], base, true);
            load.push_back(rng.uniform(0.0, 16.0));
        }
        std::int64_t tick_ns = 0, control_ns = 0;
        std::uint64_t ticks = 0, controls = 0;
        for (smartconf::sim::Tick t = 0; t < 240; ++t) {
            const std::int64_t t0 = nowNs();
            for (std::uint32_t i = 0; i < kNodes; ++i)
                nodes[i].tick(t, load[i]);
            const std::int64_t t1 = nowNs();
            tick_ns += t1 - t0;
            ticks += kNodes;
            if ((t + 1) % 4 == 0) {
                for (TenantNode &n : nodes)
                    n.controlTick();
                control_ns += nowNs() - t1;
                controls += kNodes;
            }
        }
        p.plant_tick_ns =
            static_cast<double>(tick_ns) / static_cast<double>(ticks);
        p.control_tick_ns = static_cast<double>(control_ns) /
                            static_cast<double>(controls);
        for (TenantNode &n : nodes)
            p.controller_faults += n.controller()->faults();
        // Chaos is off, so any controller fault is a failure.
        p.attempted += 1;
        p.failed += p.controller_faults;
    }

    // Zipf draws over the fleet's tenant population.
    {
        const smartconf::sim::ZipfianGenerator zipf(sizes.fleet_tenants,
                                                    0.99);
        smartconf::sim::Rng rng(seed);
        std::vector<std::uint64_t> buf(1u << 16);
        p.zipf_draw_ns =
            medianUs(21,
                     [&] { zipf.sampleBatch(rng, buf.data(), buf.size()); }) *
            1e3 / static_cast<double>(buf.size());
        p.attempted += 1;
        for (const std::uint64_t v : buf)
            if (v >= sizes.fleet_tenants) {
                ++p.failed;
                break;
            }
    }

    // Small (~1 KB) results are no program path's store traffic, so the
    // size class is measured only here: through the codec, and in a
    // store that holds nothing else.
    std::vector<ScenarioResult> smalls;
    std::vector<std::vector<char>> small_bytes;
    {
        smartconf::sim::Rng rng(seed ^ 0x534d414c4cULL);
        for (std::size_t i = 0; i < kSmallResults; ++i) {
            smalls.push_back(smallResult(rng, i));
            small_bytes.push_back(DiskRunCache::serializeResult(smalls[i]));
        }
    }

    // The store's codec on one small and one real-size payload.
    {
        const ScenarioResult &small_r = smalls.front();
        const ScenarioResult &large_r = in.payloads.front();
        const std::vector<char> &small_b = small_bytes.front();
        const std::vector<char> &large_b = in.bytes.front();
        std::size_t bad = 0;
        p.serialize_us_small = medianUs(201, [&] {
            bad += DiskRunCache::serializeResult(small_r).size() !=
                   small_b.size();
        });
        p.serialize_us_large = medianUs(21, [&] {
            bad += DiskRunCache::serializeResult(large_r).size() !=
                   large_b.size();
        });
        ScenarioResult out;
        p.parse_us_small = medianUs(201, [&] {
            bad += !DiskRunCache::parseResult(small_b.data(),
                                              small_b.size(), out);
        });
        p.parse_us_large = medianUs(21, [&] {
            bad += !DiskRunCache::parseResult(large_b.data(),
                                              large_b.size(), out);
        });
        const std::uint64_t want =
            DiskRunCache::checksum64(large_b.data(), large_b.size());
        const double us = medianUs(21, [&] {
            bad += DiskRunCache::checksum64(large_b.data(),
                                            large_b.size()) != want;
        });
        p.checksum_mb_per_s = static_cast<double>(large_b.size()) / us;
        p.attempted += 5;
        p.failed += bad;
    }

    // Hit load() of small results: put them all, flush, load each.
    {
        using smartconf::exec::RunCache;
        const auto key = [](std::size_t i) {
            return RunCache::key(
                "store/small" + std::to_string(i % 6),
                smartconf::scenarios::Policy::makeStatic(double(i % 8)),
                1000 + i);
        };
        const std::string root = work + "/small";
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
        smartconf::store::SegmentStore::Options opts;
        opts.auto_compact = false;
        std::vector<double> us;
        {
            DiskRunCache cache(root, opts);
            for (std::size_t i = 0; i < smalls.size(); ++i)
                p.failed += cache.store(key(i), smalls[i]) ? 0 : 1;
            p.failed += cache.flush() ? 0 : 1;
            p.attempted += smalls.size() + 1;
            ScenarioResult out;
            for (std::size_t i = 0; i < smalls.size(); ++i) {
                const std::int64_t t0 = nowNs();
                const bool hit = cache.load(key(i), out);
                us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
                const bool same =
                    hit && DiskRunCache::serializeResult(out) ==
                               small_bytes[i];
                ++p.attempted;
                p.failed += same ? 0 : 1;
            }
        }
        p.get_hit_us_small = median(us);
        std::filesystem::remove_all(root, ec);
    }
    return p;
}

} // namespace perfbench
