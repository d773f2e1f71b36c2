/**
 * @file
 * Experiment-runner benchmark: measures sweep throughput and cache
 * behaviour so the perf trajectory can be tracked release-to-release
 * (`bench_sweep --json > BENCH_sweep.json`).
 *
 * The workload is the canonical evaluation sweep: all six case studies
 * x {SmartConf, Static-Patch, Static-Buggy} x 4 seeds (72 simulations),
 * fanned out over `--jobs N` workers.  The same sweep is then replayed
 * on the warm cache: every triple must be a cache hit, so the warm
 * pass measures pure memoization overhead — the invariant the run
 * cache exists to provide (no duplicate (scenario, policy, seed)
 * simulation, ever).
 *
 * The harness attaches the persistent store at `.smartconf-cache` by
 * default (`--cache-dir PATH` overrides it, `--no-disk-cache` turns it
 * off): the first process spills every simulated result to disk, and a
 * second process replays the whole sweep from disk without simulating.
 * The disk_hits/disk_stores counters in the output make which of the
 * two happened auditable.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/disk_cache.h"
#include "exec/sweep.h"
#include "scenarios/scenario.h"
#include "sim/kernels.h"
#include "sim/simd.h"
#include "workload/sharded.h"

int
main(int argc, char **argv)
{
    using namespace smartconf::scenarios;
    using smartconf::exec::SweepJob;
    using smartconf::workload::kShards;

    const smartconf::exec::SweepArgs args =
        smartconf::exec::parseSweepArgs(argc, argv,
                                        ".smartconf-cache");
    smartconf::exec::SweepRunner runner(args.sweep);

    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    const std::vector<std::unique_ptr<Scenario>> scenarios =
        makeAllScenarios();

    std::vector<SweepJob> jobs;
    for (const auto &s : scenarios) {
        const ScenarioInfo &info = s->info();
        const std::vector<Policy> policies = {
            Policy::smart(),
            Policy::makeStatic(info.patch_default),
            Policy::makeStatic(info.buggy_default),
        };
        for (const Policy &p : policies)
            for (const std::uint64_t seed : seeds)
                jobs.push_back(
                    SweepJob::forScenario(info.id, p, seed));
    }

    const std::vector<ScenarioResult> cold = runner.run(jobs);
    const double cold_ms = runner.lastWallMs();
    const auto cold_stats = runner.cache().stats();

    // Replay: with the cache warm, zero simulations may execute.
    const std::vector<ScenarioResult> warm = runner.run(jobs);
    const double warm_ms = runner.lastWallMs();
    const auto warm_stats = runner.cache().stats();

    // Simulation throughput: workload operations actually simulated
    // during the cold sweep, per wall-clock second.  Disk-loaded runs
    // simulate nothing, so a disk-warm process reports ops_per_sec 0 —
    // by design (replay costs file reads, not simulated operations).
    std::uint64_t ops_simulated = 0;
    for (const auto &r : cold)
        ops_simulated += r.ops_simulated;
    const std::uint64_t cold_disk_hits = cold_stats.disk_hits;
    const double ops_per_sec =
        cold_ms > 0.0 && cold_disk_hits == 0
            ? static_cast<double>(ops_simulated) / (cold_ms / 1000.0)
            : 0.0;

    // Per-shard data-plane totals, summed over every cold run's
    // pinned-order counters.  Pure function of the logical layout —
    // identical at any --jobs — so both the counters and the imbalance
    // stat participate in the payload sha.  Imbalance is max/mean over
    // the lanes (1.0 = perfectly even).
    std::uint64_t shard_totals[kShards] = {};
    for (const auto &r : cold)
        for (std::size_t s = 0; s < r.shard_ops.size() && s < kShards;
             ++s)
            shard_totals[s] += r.shard_ops[s];
    std::uint64_t shard_sum = 0, shard_max = 0;
    for (const std::uint64_t v : shard_totals) {
        shard_sum += v;
        shard_max = std::max(shard_max, v);
    }
    const double shard_imbalance =
        shard_sum > 0 ? static_cast<double>(shard_max) *
                            static_cast<double>(kShards) /
                            static_cast<double>(shard_sum)
                      : 0.0;

    // Per-scenario aggregates (sanity values for trend tracking).
    struct Row
    {
        std::string id;
        double smart_tradeoff = 0.0; // mean over seeds
        int violations = 0;          // across all policies/seeds
    };
    std::vector<Row> rows;
    std::size_t j = 0;
    for (const auto &s : scenarios) {
        Row row;
        row.id = s->info().id;
        for (int p = 0; p < 3; ++p)
            for (std::size_t k = 0; k < seeds.size(); ++k, ++j) {
                if (cold[j].violated)
                    ++row.violations;
                if (p == 0)
                    row.smart_tradeoff +=
                        cold[j].tradeoff /
                        static_cast<double>(seeds.size());
            }
        rows.push_back(row);
    }

    if (args.json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"bench_sweep\",\n");
        // Host capabilities on one line so the regression gate can
        // both exclude it from the payload hash and warn when a
        // recorded baseline came from a different machine/ISA.
        std::printf("  \"host\": {\"cpus\": %u, \"isa_detected\": "
                    "\"%s\", \"isa_active\": \"%s\", \"compiler\": "
                    "\"%s\"},\n",
                    std::thread::hardware_concurrency(),
                    smartconf::sim::simd::name(
                        smartconf::sim::simd::detected()),
                    smartconf::sim::simd::name(
                        smartconf::sim::kernels::activeIsa()),
                    __VERSION__);
        std::printf("  \"jobs\": %zu,\n", runner.jobs());
        std::printf("  \"runs\": %zu,\n", jobs.size());
        std::printf("  \"cold_wall_ms\": %.3f,\n", cold_ms);
        std::printf("  \"warm_wall_ms\": %.3f,\n", warm_ms);
        std::printf("  \"ops_simulated\": %llu,\n",
                    static_cast<unsigned long long>(ops_simulated));
        std::printf("  \"ops_per_sec\": %.0f,\n", ops_per_sec);
        // Logical-layout invariants: identical at any --jobs, so they
        // participate in the payload sha.
        std::printf("  \"shard_ops\": [");
        for (std::size_t s = 0; s < kShards; ++s)
            std::printf("%s%llu", s == 0 ? "" : ", ",
                        static_cast<unsigned long long>(
                            shard_totals[s]));
        std::printf("],\n");
        std::printf("  \"shard_imbalance\": %.6f,\n", shard_imbalance);
        std::printf("  \"cache_hits\": %llu,\n",
                    static_cast<unsigned long long>(warm_stats.hits));
        std::printf("  \"cache_misses\": %llu,\n",
                    static_cast<unsigned long long>(warm_stats.misses));
        std::printf("  \"disk_hits\": %llu,\n",
                    static_cast<unsigned long long>(
                        warm_stats.disk_hits));
        std::printf("  \"disk_stores\": %llu,\n",
                    static_cast<unsigned long long>(
                        warm_stats.disk_stores));
        // Segment-store IO counters (zeros when the disk cache is
        // off).  The warm-process regression gate checks that disk
        // hits were served by batched segment reads — store_reads
        // tracks payload preads, store_segments_opened how many
        // segment files were opened to serve them.  A per-entry-open
        // regression shows up as opened ~== reads.
        {
            const smartconf::exec::DiskRunCache *disk =
                runner.cache().diskCache();
            const smartconf::store::StoreStats io =
                disk ? disk->ioStats() : smartconf::store::StoreStats{};
            std::printf("  \"store_reads\": %llu,\n",
                        static_cast<unsigned long long>(io.reads));
            std::printf("  \"store_read_bytes\": %llu,\n",
                        static_cast<unsigned long long>(io.read_bytes));
            std::printf("  \"store_segments_opened\": %llu,\n",
                        static_cast<unsigned long long>(
                            io.segments_opened));
            std::printf("  \"store_segments_published\": %llu,\n",
                        static_cast<unsigned long long>(
                            io.segments_published));
        }
        std::printf("  \"scenarios\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("    {\"id\": \"%s\", \"smart_tradeoff\": "
                        "%.6f, \"violations\": %d}%s\n",
                        rows[i].id.c_str(), rows[i].smart_tradeoff,
                        rows[i].violations,
                        i + 1 < rows.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("Experiment-runner sweep benchmark\n\n");
    std::printf("workers (--jobs): %zu\n", runner.jobs());
    std::printf("logical shards per run: %zu\n", kShards);
    std::printf("shard imbalance (max/mean over lanes): %.4f\n",
                shard_imbalance);
    std::printf("disk cache: %s\n",
                args.sweep.disk_cache_dir.empty()
                    ? "(off)"
                    : args.sweep.disk_cache_dir.c_str());
    std::printf("sweep: 6 scenarios x 3 policies x %zu seeds = %zu "
                "runs\n\n", seeds.size(), jobs.size());
    std::printf("cold sweep: %10.1f ms  (%llu misses, %llu hits, "
                "%llu from disk)\n",
                cold_ms,
                static_cast<unsigned long long>(cold_stats.misses),
                static_cast<unsigned long long>(cold_stats.hits),
                static_cast<unsigned long long>(cold_stats.disk_hits));
    std::printf("warm replay: %9.1f ms  (+%llu hits, +%llu misses — "
                "a warm replay\n                            simulates "
                "nothing)\n",
                warm_ms,
                static_cast<unsigned long long>(warm_stats.hits -
                                                cold_stats.hits),
                static_cast<unsigned long long>(warm_stats.misses -
                                                cold_stats.misses));
    std::printf("throughput: %10.0f simulated ops/s (%llu ops, cold "
                "pass)\n\n",
                ops_per_sec,
                static_cast<unsigned long long>(ops_simulated));
    std::printf("%-8s %16s %12s\n", "issue", "smart ops/s*", "violations");
    std::printf("%s\n", std::string(40, '-').c_str());
    for (const Row &row : rows)
        std::printf("%-8s %16.3f %12d\n", row.id.c_str(),
                    row.smart_tradeoff, row.violations);
    std::printf("\n(*canonical higher-is-better trade-off score, mean "
                "over seeds)\n");
    return 0;
}
