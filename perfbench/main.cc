/**
 * @file
 * The benchmark process: one workload, one seed, closed loop.
 *
 *   perfbench --workload sweep|fleet|store --seed N --seconds S
 *             --trace 0|1 [--t0-ns NS] [--setup-only]
 *             [--work-dir DIR] [--out-dir DIR]
 *
 * Set-up (process start to the first timed call) warms every lazy
 * process-wide cache on inputs outside the measured set.  Then rounds
 * repeat until S seconds have passed: each round is one sweep pass, one
 * fleet run and one store cycle, every call issued when the previous
 * one has returned.  With --trace 1 every other round records spans,
 * and the rest of the budget times single layers; the report then
 * holds the per-layer metrics and the tracing overhead.
 *
 * Prints one JSON line: the report that perfbench/run.py turns into
 * the benchmark's result.  Writes a set-up breakdown and one line per
 * round to stderr, so every run shows whether the host drifted.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "sim/kernels.h"
#include "sim/simd.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/** Seeds no workload measures: warm-up inputs. */
constexpr std::uint64_t kWarmSeed = 999999;

/** The paper's evaluation seeds, for the Fig. 5 quality metrics. */
constexpr std::size_t kQualitySeeds = 24;

/** Fleet seed of fleet_violation_rate: fixed, like the Fig. 5 seeds. */
constexpr std::uint64_t kQualityFleetSeed = 1;

constexpr int kMinRounds = 6;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::int64_t t0_ns = 0;
    std::string work_dir = ".bench_work";
    std::string out_dir = ".bench_out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v);
        else if (flag == "--trace")
            a.trace = std::strcmp(v, "1") == 0;
        else if (flag == "--t0-ns")
            a.t0_ns = std::strtoll(v, nullptr, 10);
        else if (flag == "--work-dir")
            a.work_dir = v;
        else if (flag == "--out-dir")
            a.out_dir = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Metrics in output order, with units and, for timings, a summary. */
class Report
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                         false, {}});
    }
    void addTiming(const std::string &name, const std::vector<double> &v,
                   const char *unit)
    {
        const Summary s = summarize(v);
        rows_.push_back({name, s.median, unit, true, s});
    }
    /** Same, reporting the summary's tail instead of its median. */
    void addTail(const std::string &name, const std::vector<double> &v,
                 double q, const char *unit)
    {
        Summary s = summarize(v);
        s.median = quantile(v, q);
        rows_.push_back({name, s.median, unit, true, s});
    }

    std::string json() const
    {
        std::string out = "{";
        char buf[512];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                          i ? ", " : "", r.name.c_str(), r.value, r.unit);
            out += buf;
            if (r.timing) {
                std::snprintf(buf, sizeof buf,
                              ", \"median\": %.17g, \"tail_pct\": %g, "
                              "\"tail\": %.17g, \"samples\": %zu",
                              r.s.median, r.s.tail_pct, r.s.tail, r.s.n);
                out += buf;
            }
            out += "}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
        bool timing;
        Summary s;
    };
    std::vector<Row> rows_;
};

/** Per-round results of one kind of round (traced or untraced). */
struct Rounds
{
    std::vector<double> runs_per_s, sim_ops_per_s;
    std::vector<double> tenant_ticks_per_s;
    std::vector<double> put_us, get_us, miss_us, reopen_ms, disk_ratio;
    std::vector<SweepPass> passes; ///< traced only
    std::vector<FleetRun> fleets;  ///< traced only
    std::vector<StoreCycle> cycles; ///< traced only
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

template <typename T, typename F>
std::vector<double>
collect(const std::vector<T> &v, F f)
{
    std::vector<double> out;
    for (const T &x : v)
        out.push_back(f(x));
    return out;
}

/**
 * Accepted store() calls per second at the median call time.  The
 * median keeps a page fault in one call from moving the rate;
 * store.put_us_p99 shows the tail.
 */
double
putRate(const Rounds &r)
{
    const double us = median(r.put_us);
    return us > 0.0 ? 1e6 / us : 0.0;
}

double
overheadPct(double untraced, double traced)
{
    return traced > 0.0 ? (untraced / traced - 1.0) * 100.0 : 0.0;
}

void
perLayer(Report &rep, const Rounds &u, const Rounds &t, const Probes &pr)
{
    const auto &ids = scenarioIds();

    // Scenarios, and through them the plants they run on.
    std::vector<std::vector<std::vector<double>>> run_ms(
        ids.size(), std::vector<std::vector<double>>(kPolicies));
    std::vector<double> scn_ns(ids.size()), scn_ops(ids.size());
    std::map<std::string, std::pair<double, double>> plant; // ns, ops
    for (const SweepPass &p : t.passes)
        for (const JobSample &s : p.samples) {
            run_ms[s.scenario][s.policy].push_back(
                static_cast<double>(s.ns) / 1e6);
            scn_ns[s.scenario] += static_cast<double>(s.ns);
            scn_ops[s.scenario] += static_cast<double>(s.ops);
            auto &pl = plant[plantOf(ids[s.scenario])];
            pl.first += static_cast<double>(s.ns);
            pl.second += static_cast<double>(s.ops);
        }
    // A (scenario, policy) pair with no samples is always served by the
    // RunCache (HD4995's Static-Buggy setting equals its Static-Patch).
    for (std::size_t s = 0; s < ids.size(); ++s)
        for (std::size_t p = 0; p < kPolicies; ++p)
            if (!run_ms[s][p].empty())
                rep.addTiming("scenarios.run_ms." + ids[s] + "." +
                                  kPolicyNames[p],
                              run_ms[s][p], "ms");
    for (std::size_t s = 0; s < ids.size(); ++s)
        rep.add("scenarios.profile_ms." + ids[s], pr.profile_ms[s], "ms");
    for (std::size_t s = 0; s < ids.size(); ++s)
        rep.add("scenarios.ns_per_op." + ids[s],
                scn_ops[s] > 0 ? scn_ns[s] / scn_ops[s] : 0.0, "ns");
    for (const char *name : {"kvstore", "dfs", "mapreduce"}) {
        const auto &pl = plant[name];
        rep.add(std::string(name) + ".ns_per_op",
                pl.second > 0 ? pl.first / pl.second : 0.0, "ns");
    }

    // Executor.
    rep.add("exec.busy_frac",
            median(collect(t.passes,
                           [](const SweepPass &p) { return p.busy_frac; })),
            "ratio");
    rep.addTiming("exec.join_ms",
                  collect(t.passes,
                          [](const SweepPass &p) { return p.join_ms; }),
                  "ms");
    rep.addTiming("exec.run_self_ms",
                  collect(t.passes,
                          [](const SweepPass &p) { return p.exec_self_ms; }),
                  "ms");
    rep.add("exec.cache_dedup_hits",
            median(collect(t.passes,
                           [](const SweepPass &p) {
                               return static_cast<double>(p.dedup_hits);
                           })),
            "count");

    // Fleet and the controller core.
    const std::vector<double> coord_epoch = collect(
        t.fleets, [](const FleetRun &f) {
            return f.epochs ? f.coord.wall_ms / static_cast<double>(f.epochs)
                            : 0.0;
        });
    rep.addTiming("fleet.coord_epoch_ms", coord_epoch, "ms");
    rep.add("fleet.coord_serial_frac",
            median(collect(t.fleets,
                           [](const FleetRun &f) {
                               return f.inner_wall_ms > 0
                                          ? f.coord.wall_ms / f.inner_wall_ms
                                          : 0.0;
                           })),
            "ratio");
    const FleetRun &f0 = t.fleets.front();
    rep.add("fleet.coord_attach_calls",
            static_cast<double>(f0.coord.attach_calls), "count");
    rep.add("fleet.coord_fanouts", static_cast<double>(f0.coord.fanouts),
            "count");
    rep.add("fleet.pinned_wall_ms", pr.pinned_wall_ms, "ms");
    const double smart_ms = median(
        collect(t.fleets, [](const FleetRun &f) { return f.wall_ms; }));
    rep.add("fleet.control_share",
            smart_ms > 0 ? 1.0 - pr.pinned_wall_ms / smart_ms : 0.0,
            "ratio");
    rep.add("fleet.one_tick_ms", pr.one_tick_ms, "ms");
    rep.add("fleet.plant_tick_ns", pr.plant_tick_ns, "ns");
    rep.add("core.control_tick_ns", pr.control_tick_ns, "ns");
    rep.add("core.faults", static_cast<double>(pr.controller_faults),
            "count");
    rep.add("sim.zipf_draw_ns", pr.zipf_draw_ns, "ns");

    // Store.
    std::vector<double> flush_ms;
    for (const StoreCycle &c : t.cycles)
        flush_ms.insert(flush_ms.end(), c.flush_ms.begin(),
                        c.flush_ms.end());
    rep.addTiming("store.put_us_p50", t.put_us, "us");
    rep.addTail("store.put_us_p99", t.put_us, 0.99, "us");
    rep.addTiming("store.flush_ms", flush_ms, "ms");
    rep.add("store.serialize_us.small", pr.serialize_us_small, "us");
    rep.add("store.serialize_us.large", pr.serialize_us_large, "us");
    rep.add("store.parse_us.small", pr.parse_us_small, "us");
    rep.add("store.parse_us.large", pr.parse_us_large, "us");
    rep.add("store.checksum_mb_per_s", pr.checksum_mb_per_s, "MB/s");
    rep.add("store.get_hit_us.small", pr.get_hit_us_small, "us");
    rep.addTiming("store.get_hit_us.large", t.get_us, "us");
    rep.addTiming("store.miss_us_p50", t.miss_us, "us");
    rep.addTiming("store.reopen_ms", t.reopen_ms, "ms");
    const auto cyc = [&](auto f) { return median(collect(t.cycles, f)); };
    rep.addTiming("store.compact_ms",
                  collect(t.cycles,
                          [](const StoreCycle &c) { return c.compact_ms; }),
                  "ms");
    rep.add("store.compact_entries_per_s", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.compaction.entries_in) /
                       (c.compact_ms / 1e3);
            }),
            "1/s");
    rep.add("store.compact_bytes_written", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.compaction.bytes_written);
            }),
            "B");
    rep.add("store.reads", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.io.reads);
            }),
            "count");
    rep.add("store.read_bytes", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.io.read_bytes);
            }),
            "B");
    rep.add("store.segments_published", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.io.segments_published);
            }),
            "count");
    rep.add("store.rescans", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.io.rescans);
            }),
            "count");
    rep.add("store.hit_ratio", cyc([](const StoreCycle &c) {
                return c.io.gets ? static_cast<double>(c.io.hits) /
                                       static_cast<double>(c.io.gets)
                                 : 0.0;
            }),
            "ratio");
    rep.add("store.segments_opened", cyc([](const StoreCycle &c) {
                return static_cast<double>(c.reopen_io.segments_opened);
            }),
            "count");
    rep.add("store.opens_per_read", cyc([](const StoreCycle &c) {
                return c.reopen_io.reads
                           ? static_cast<double>(
                                 c.reopen_io.segments_opened) /
                                 static_cast<double>(c.reopen_io.reads)
                           : 0.0;
            }),
            "ratio");

    // What recording spans costs, per subsystem, on the same rounds.
    rep.add("trace.overhead_pct.sweep",
            overheadPct(median(u.runs_per_s), median(t.runs_per_s)), "%");
    rep.add("trace.overhead_pct.fleet",
            overheadPct(median(u.tenant_ticks_per_s),
                        median(t.tenant_ticks_per_s)),
            "%");
    rep.add("trace.overhead_pct.store", overheadPct(putRate(u), putRate(t)),
            "%");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t start_ns = nowNs();
    const Args args = parse(argc, argv);
    const std::int64_t t0 = args.t0_ns > 0 ? args.t0_ns : start_ns;
    Sizes sizes;
    if (!sizesFor(args.workload, sizes))
        usage("--workload must be sweep, fleet or store");
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::min<std::size_t>(nproc, 4);

    namespace fs = std::filesystem;
    const std::string work =
        (fs::path(args.work_dir) / ("p" + std::to_string(::getpid())))
            .string();
    fs::create_directories(work);
    fs::create_directories(args.out_dir);

    std::size_t attempted = 0, failed = 0;

    // ---- set-up: warm the lazy caches outside the measured set.
    std::unique_ptr<smartconf::exec::ThreadPool> pool;
    if (workers > 1)
        pool = std::make_unique<smartconf::exec::ThreadPool>(workers);
    std::vector<smartconf::scenarios::ScenarioResult> real;
    {
        const SweepPass w = runSweepPass(kWarmSeed, 1, workers, nullptr,
                                         &real);
        const FleetRun f = runFleetOnce(sizes.fleet_tenants, 20, kWarmSeed,
                                        true, pool.get(), nullptr);
        attempted += w.jobs + 1;
        failed += w.failed + (f.failed ? 1 : 0);
    }
    const std::int64_t warm_ns = nowNs();
    const StoreInput store_in = makeStoreInput(args.seed, sizes, real);
    // No store cycle here: its file-system work drifts with the churn of
    // earlier runs, which set-up time would then carry.  The first
    // measured cycle pays the first-touch cost; every store metric is a
    // median.
    attempted += store_in.payloads.size();
    failed += warmStoreCodec(store_in);
    const double setup_s = static_cast<double>(nowNs() - t0) / 1e9;
    std::fprintf(stderr,
                 "setup %.1f ms: start %.1f, sweep + fleet warm-up %.1f, "
                 "store input + codec %.1f\n",
                 setup_s * 1e3, static_cast<double>(start_ns - t0) / 1e6,
                 static_cast<double>(warm_ns - start_ns) / 1e6,
                 static_cast<double>(nowNs() - warm_ns) / 1e6);
    if (args.setup_only) {
        fs::remove_all(work);
        std::printf("{\"setup_s\": %.17g}\n", setup_s);
        return 0;
    }

    // ---- measured rounds.
    Tracer tracer;
    Rounds untraced, traced;
    const std::uint64_t first_seed =
        sweepFirstSeed(args.seed, sizes.sweep_seeds);
    std::uint64_t sweep_digest = 0, fleet_digest = 0;
    const std::int64_t measure0 = nowNs();
    const double budget_s = args.seconds * (args.trace ? 0.75 : 1.0);
    for (int r = 0;; ++r) {
        const double elapsed =
            static_cast<double>(nowNs() - measure0) / 1e9;
        if (r >= kMinRounds && elapsed >= budget_s)
            break;
        const bool on = args.trace && r % 2 == 1;
        Tracer *t = on ? &tracer : nullptr;
        Rounds &acc = on ? traced : untraced;

        SweepPass sp = runSweepPass(first_seed, sizes.sweep_seeds, workers,
                                    t);
        FleetRun fr = runFleetOnce(sizes.fleet_tenants, 240, args.seed,
                                   true, pool.get(), t);
        StoreCycle sc = runStoreCycle(
            store_in, work + "/r" + std::to_string(r), t);

        std::fprintf(stderr,
                     "round %d%s: sweep %.2f ms, fleet %.2f ms, put %.2f us, "
                     "get %.2f us, reopen %.3f ms\n",
                     r, on ? " traced" : "", sp.wall_ms, fr.wall_ms,
                     median(sc.put_us), median(sc.hit_us), sc.reopen_ms);
        attempted += sp.jobs + 1 + sc.attempted;
        failed += sp.failed + (fr.failed ? 1 : 0) + sc.failed;
        if (r == 0) {
            sweep_digest = sp.digest;
            fleet_digest = fr.digest;
        }
        // Every repeat must reproduce the first round's outputs.
        failed += (sp.digest != sweep_digest) + (fr.digest != fleet_digest);

        acc.runs_per_s.push_back(static_cast<double>(sp.jobs) /
                                 (sp.wall_ms / 1e3));
        acc.sim_ops_per_s.push_back(static_cast<double>(sp.ops) /
                                    (sp.wall_ms / 1e3));
        acc.tenant_ticks_per_s.push_back(
            static_cast<double>(fr.tenant_ticks) / (fr.wall_ms / 1e3));
        acc.put_us.insert(acc.put_us.end(), sc.put_us.begin(),
                          sc.put_us.end());
        acc.get_us.insert(acc.get_us.end(), sc.hit_us.begin(),
                          sc.hit_us.end());
        acc.miss_us.insert(acc.miss_us.end(), sc.miss_us.begin(),
                           sc.miss_us.end());
        acc.reopen_ms.push_back(sc.reopen_ms);
        acc.disk_ratio.push_back(sc.disk_bytes_per_payload_byte);
        if (on) {
            acc.passes.push_back(std::move(sp));
            acc.fleets.push_back(fr);
            acc.cycles.push_back(std::move(sc));
        }
    }

    // The rounds' peak, before the quality pass below holds its results.
    const double peak_rss_mb = peakRssMb();

    Report rep;
    if (args.trace) {
        const Probes pr =
            probeLayers(args.seed, sizes, pool.get(), store_in, work);
        attempted += pr.attempted;
        failed += pr.failed;
        perLayer(rep, untraced, traced, pr);
        const std::string csv =
            args.out_dir + "/" + args.workload + ".spans.csv";
        if (!tracer.writeCsv(csv))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         csv.c_str());
    } else {
        // Simulated quality on fixed seeds: the Fig. 5 evaluation seeds
        // and one fleet seed, so it reads the same on every run of
        // unchanged code, whatever the workload seed.
        std::vector<smartconf::scenarios::ScenarioResult> results;
        const SweepPass q =
            runSweepPass(1, kQualitySeeds, workers, nullptr, &results);
        const FleetRun qf = runFleetOnce(sizes.fleet_tenants, 240,
                                         kQualityFleetSeed, true, pool.get(),
                                         nullptr);
        attempted += q.jobs + 1;
        failed += q.failed + (qf.failed ? 1 : 0);
        const Quality quality = qualityOf(results, kQualitySeeds);

        const Rounds &u = untraced;
        rep.add("setup_s", setup_s, "s");
        rep.add("peak_rss_mb", peak_rss_mb, "MB");
        rep.addTiming("runs_per_s", u.runs_per_s, "1/s");
        rep.addTiming("sim_ops_per_s", u.sim_ops_per_s, "1/s");
        rep.add("smart_violations",
                static_cast<double>(quality.smart_violations), "count");
        rep.add("smart_tradeoff_gain", quality.smart_tradeoff_gain, "x");
        rep.addTiming("tenant_ticks_per_s", u.tenant_ticks_per_s, "1/s");
        rep.add("fleet_violation_rate", qf.violation_rate, "ratio");
        rep.add("put_per_s", putRate(u), "1/s");
        rep.addTiming("get_us_p50", u.get_us, "us");
        rep.addTail("get_us_p99", u.get_us, 0.99, "us");
        rep.add("disk_bytes_per_payload_byte", median(u.disk_ratio),
                "B/B");
    }
    fs::remove_all(work);

    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"rounds\": %zu, \"attempted\": %zu, \"failed\": %zu, "
        "\"setup_s\": %.17g, \"digests\": {\"sweep\": \"%s\", "
        "\"fleet\": \"%s\"}, \"fingerprint\": {\"nproc\": %zu, "
        "\"workers\": %zu, \"isa\": \"%s\", \"compiler\": \"%s\", "
        "\"build_type\": \"%s\"}, \"metrics\": %s}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.trace ? 1 : 0, untraced.runs_per_s.size() +
                                traced.runs_per_s.size(),
        attempted, failed, setup_s, hex64(sweep_digest).c_str(),
        hex64(fleet_digest).c_str(), nproc, workers,
        smartconf::sim::simd::name(smartconf::sim::kernels::activeIsa()),
        __VERSION__, PERFBENCH_BUILD_TYPE, rep.json().c_str());
    return 0;
}
