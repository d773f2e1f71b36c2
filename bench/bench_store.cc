/**
 * @file
 * Segment-store benchmark: fill rate, lookup latency, compaction
 * throughput, and warm-second-process wall time at cache scale
 * (`bench_store --json > BENCH_store.json`).
 *
 * The workload is synthetic on purpose: ~50k small ScenarioResults
 * pushed through the full DiskRunCache -> SegmentStore path (serialize,
 * checksum, shard, seal, publish), then read back through the same
 * batched path a warm process uses.  Simulating 50k real runs would
 * take minutes and measure the simulator; this measures the store.
 *
 * `--entries N` (or BENCH_STORE_ENTRIES) scales the fill; N=0 prints a
 * skipped-run JSON so gates can distinguish "skipped" from "broken".
 * Any N that is not a whole non-negative integer exits with status 2.
 * `--dir PATH` overrides the store root (default: a fresh directory
 * under the system temp dir, removed afterwards).
 */

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/disk_cache.h"
#include "exec/sweep.h"
#include "scenarios/scenario.h"
#include "sim/metrics.h"
#include "store/query.h"
#include "store/segment_store.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Small synthetic result: ~40 series points, distinct per (i). */
smartconf::scenarios::ScenarioResult
resultFor(std::uint64_t i)
{
    smartconf::scenarios::ScenarioResult r;
    r.scenario_id = "bench-store";
    r.policy_label = "synthetic";
    r.goal_value = 100.0 + static_cast<double>(i % 97);
    r.tradeoff = static_cast<double>(i) * 0.5;
    r.ops_simulated = i;
    r.perf_series = smartconf::sim::TimeSeries("perf");
    r.conf_series = smartconf::sim::TimeSeries("conf");
    r.tradeoff_series = smartconf::sim::TimeSeries("ops");
    for (int t = 0; t < 40; ++t)
        r.perf_series.record(t, static_cast<double>((i * 31 + t) % 1000));
    return r;
}

std::string
keyFor(std::uint64_t i)
{
    // Mirrors RunCache::key shapes so the queryable index has real
    // (scenario family, policy, seed) structure to range over.
    return "bench/scn" + std::to_string(i % 6) +
           "|fixed:v=" + std::to_string(i % 8) +
           ":label=B|s=" + std::to_string(i);
}

} // namespace

int
main(int argc, char **argv)
{
    using smartconf::exec::DiskRunCache;
    using smartconf::exec::parseIntFlag;

    std::uint64_t entries = 50000;
    if (const char *env = std::getenv("BENCH_STORE_ENTRIES"))
        entries = parseIntFlag("BENCH_STORE_ENTRIES", env, 0, UINT64_MAX);
    std::string root;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--entries") == 0 && i + 1 < argc)
            entries = parseIntFlag("--entries", argv[++i], 0, UINT64_MAX);
        else if (std::strncmp(argv[i], "--entries=", 10) == 0)
            entries = parseIntFlag("--entries", argv[i] + 10, 0,
                                   UINT64_MAX);
        else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc)
            root = argv[++i];
        else if (std::strncmp(argv[i], "--dir=", 6) == 0)
            root = argv[i] + 6;
    }

    if (entries == 0) {
        std::printf("{\n  \"bench\": \"bench_store\",\n"
                    "  \"skipped\": true\n}\n");
        return 0;
    }

    const bool own_root = root.empty();
    if (own_root)
        root = (fs::temp_directory_path() /
                ("smartconf-bench-store-" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
                   .string();
    fs::remove_all(root);

    double fill_ms, lookup_ms, compact_ms, warm_ms, query_ms;
    std::uint64_t compact_in = 0, compact_out = 0, segments_before = 0,
                  segments_after = 0, query_rows = 0,
                  warm_segments_opened = 0, warm_reads = 0,
                  warm_read_bytes = 0;
    constexpr std::uint64_t kLookups = 2000;

    {
        // Fill through the production path.  auto_compact off, so no
        // flush merges: the compaction pass below times every merge.
        smartconf::store::SegmentStore::Options opts;
        opts.auto_compact = false;
        DiskRunCache cache(root, opts);
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < entries; ++i) {
            if (!cache.store(keyFor(i), resultFor(i))) {
                std::fprintf(stderr, "store failed at %llu\n",
                             static_cast<unsigned long long>(i));
                return 1;
            }
        }
        if (!cache.flush()) {
            std::fprintf(stderr, "flush failed\n");
            return 1;
        }
        fill_ms = msSince(t0);
        segments_before = cache.segmentStore().segmentCount();

        // In-process lookup latency over a strided sample (all sealed
        // by now, so these are index-search + pread, not pending hits).
        const auto t1 = Clock::now();
        smartconf::scenarios::ScenarioResult out;
        for (std::uint64_t j = 0; j < kLookups; ++j) {
            const std::uint64_t i = (j * 25013) % entries;
            if (!cache.load(keyFor(i), out)) {
                std::fprintf(stderr, "lookup miss at %llu\n",
                             static_cast<unsigned long long>(i));
                return 1;
            }
        }
        lookup_ms = msSince(t1);

        // Synchronous compaction: merge every multi-segment shard.
        const auto t2 = Clock::now();
        const smartconf::store::CompactionResult cr =
            cache.segmentStore().compact();
        compact_ms = msSince(t2);
        compact_in = cr.entries_in;
        compact_out = cr.entries_out;
        segments_after = cache.segmentStore().segmentCount();

        // Index-only range query (the smartconfctl query path).
        const auto t3 = Clock::now();
        smartconf::store::QueryFilter f;
        f.scenario_prefix = "bench/scn3";
        f.seed_min = entries / 4;
        f.seed_max = (3 * entries) / 4;
        query_rows =
            smartconf::store::queryStore(cache.segmentStore(), f)
                .size();
        query_ms = msSince(t3);
    }

    {
        // Warm second process: a fresh instance over the same root.
        smartconf::store::SegmentStore::Options opts;
        opts.auto_compact = false;
        const auto t0 = Clock::now();
        DiskRunCache cache(root, opts);
        smartconf::scenarios::ScenarioResult out;
        for (std::uint64_t j = 0; j < kLookups; ++j) {
            const std::uint64_t i = (j * 40013) % entries;
            if (!cache.load(keyFor(i), out)) {
                std::fprintf(stderr, "warm miss at %llu\n",
                             static_cast<unsigned long long>(i));
                return 1;
            }
        }
        warm_ms = msSince(t0);
        const smartconf::store::StoreStats io = cache.ioStats();
        warm_segments_opened = io.segments_opened;
        warm_reads = io.reads;
        warm_read_bytes = io.read_bytes;
    }

    if (own_root)
        fs::remove_all(root);

    const double fill_rate =
        fill_ms > 0 ? static_cast<double>(entries) / (fill_ms / 1000.0)
                    : 0.0;
    const double lookup_us =
        1000.0 * lookup_ms / static_cast<double>(kLookups);
    const double compact_rate =
        compact_ms > 0
            ? static_cast<double>(compact_in) / (compact_ms / 1000.0)
            : 0.0;

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"bench_store\",\n");
        std::printf("  \"entries\": %llu,\n",
                    static_cast<unsigned long long>(entries));
        std::printf("  \"fill_ms\": %.3f,\n", fill_ms);
        std::printf("  \"fill_entries_per_sec\": %.0f,\n", fill_rate);
        std::printf("  \"lookup_us_avg\": %.3f,\n", lookup_us);
        std::printf("  \"segments_before_compact\": %llu,\n",
                    static_cast<unsigned long long>(segments_before));
        std::printf("  \"segments_after_compact\": %llu,\n",
                    static_cast<unsigned long long>(segments_after));
        std::printf("  \"compact_ms\": %.3f,\n", compact_ms);
        std::printf("  \"compact_entries_per_sec\": %.0f,\n",
                    compact_rate);
        std::printf("  \"compact_entries_in\": %llu,\n",
                    static_cast<unsigned long long>(compact_in));
        std::printf("  \"compact_entries_out\": %llu,\n",
                    static_cast<unsigned long long>(compact_out));
        std::printf("  \"query_ms\": %.3f,\n", query_ms);
        std::printf("  \"query_rows\": %llu,\n",
                    static_cast<unsigned long long>(query_rows));
        std::printf("  \"warm_process_wall_ms\": %.3f,\n", warm_ms);
        std::printf("  \"warm_lookups\": %llu,\n",
                    static_cast<unsigned long long>(kLookups));
        std::printf("  \"warm_store_reads\": %llu,\n",
                    static_cast<unsigned long long>(warm_reads));
        std::printf("  \"warm_store_read_bytes\": %llu,\n",
                    static_cast<unsigned long long>(warm_read_bytes));
        std::printf("  \"warm_segments_opened\": %llu\n",
                    static_cast<unsigned long long>(
                        warm_segments_opened));
        std::printf("}\n");
        return 0;
    }

    std::printf("Segment-store benchmark (%llu entries)\n\n",
                static_cast<unsigned long long>(entries));
    std::printf("fill:        %10.1f ms  (%.0f entries/s, %llu "
                "segments)\n",
                fill_ms, fill_rate,
                static_cast<unsigned long long>(segments_before));
    std::printf("lookup:      %10.3f us/lookup (%llu sealed lookups)\n",
                lookup_us, static_cast<unsigned long long>(kLookups));
    std::printf("compaction:  %10.1f ms  (%llu -> %llu entries, %llu "
                "-> %llu segments, %.0f entries/s)\n",
                compact_ms,
                static_cast<unsigned long long>(compact_in),
                static_cast<unsigned long long>(compact_out),
                static_cast<unsigned long long>(segments_before),
                static_cast<unsigned long long>(segments_after),
                compact_rate);
    std::printf("query:       %10.1f ms  (%llu rows, index-only)\n",
                query_ms, static_cast<unsigned long long>(query_rows));
    std::printf("warm proc:   %10.1f ms  (%llu lookups, %llu segments "
                "opened)\n",
                warm_ms, static_cast<unsigned long long>(kLookups),
                static_cast<unsigned long long>(warm_segments_opened));
    return 0;
}
