/**
 * @file
 * Regenerates Figure 7: SmartConf vs alternative controller designs on
 * the HB3813 case under a less stable workload — a 0.7W/0.3R mix with
 * a sustained request backlog and an abrupt co-resident allocation (a
 * compaction claiming 150 MB) at 90 s, the paper's "a new process
 * could unexpectedly allocate a huge data structure".
 *
 *   - SmartConf: virtual goal + context-aware poles.
 *   - Single Pole: the same virtual goal but only one conservative
 *     pole (0.9) — the paper's strawman: it reacts slowly in *both*
 *     directions, so it either crashes or cripples throughput.
 *   - No Virtual Goal: context-aware poles targeting the raw 495 MB
 *     constraint — no headroom, so the allocation burst kills it
 *     (the paper reports a JVM crash at ~36 s).
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/sweep.h"
#include "scenarios/hb3813.h"

namespace {

smartconf::scenarios::Hb3813Options
fig7Options()
{
    using namespace smartconf::scenarios;
    Hb3813Options o;
    o.write_fraction = 0.7;  // the unstable 70/30 mix
    o.arrival_base = 16.0;   // sustained backlog
    o.arrival_amp = 3.0;
    o.arrival_amp2 = 1.0;
    o.phase1_ticks = 1800;   // single phase; the burst is the event
    o.total_ticks = 1800;    // 180 s, like the figure
    o.spike_mb = 150.0;      // compaction burst at 90 s
    o.spike_at = 900;
    o.spike_ramp = 30;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smartconf::scenarios;
    using smartconf::exec::SweepJob;

    const smartconf::exec::SweepArgs args =
        smartconf::exec::parseSweepArgs(argc, argv);
    smartconf::exec::SweepRunner runner(args.sweep);

    // Each controller variant gets a private scenario instance, built
    // on the worker that runs it; "HB3813/fig7" keys the non-default
    // workload variant in the run cache.
    auto factory = [] {
        return std::unique_ptr<Scenario>(
            new Hb3813Scenario(fig7Options()));
    };
    const std::vector<SweepJob> jobs = {
        SweepJob::forFactory("HB3813/fig7", factory, Policy::smart(),
                             1),
        SweepJob::forFactory("HB3813/fig7", factory,
                             Policy::singlePole(0.9), 1),
        SweepJob::forFactory("HB3813/fig7", factory,
                             Policy::noVirtualGoal(), 1),
    };
    const std::vector<ScenarioResult> results = runner.run(jobs);

    struct Run
    {
        const char *name;
        ScenarioResult result;
    };
    std::vector<Run> runs;
    runs.push_back({"SmartConf", results[0]});
    runs.push_back({"Single Pole", results[1]});
    runs.push_back({"No Virtual Goal", results[2]});

    std::printf("Figure 7. SmartConf vs. alternative controllers "
                "(HB3813, 0.7W mix,\n150 MB co-resident allocation at "
                "90 s, 180 s run, 495 MB hard limit)\n\n");
    std::printf("%8s | %14s %14s %14s   (used memory, MB)\n", "time(s)",
                runs[0].name, runs[1].name, runs[2].name);
    std::printf("%s\n", std::string(70, '-').c_str());
    // Rows are SmartConf's down-sampled points.  Every run records its
    // used memory each tick until it ends, so each column shows that
    // run's reading at the row's tick, or "(dead)" once the run ended
    // (an OOM stops it early).
    using Point = smartconf::sim::TimeSeries::Point;
    auto at = [](const smartconf::sim::TimeSeries &s,
                 smartconf::sim::Tick t) {
        const std::vector<Point> &p = s.points();
        if (p.empty() || t > p.back().tick)
            return -1.0;
        const auto it = std::lower_bound(
            p.begin(), p.end(), t,
            [](const Point &q, smartconf::sim::Tick x) {
                return q.tick < x;
            });
        return it->value;
    };
    for (const Point &row : runs[0].result.perf_series.downsampleMax(18)) {
        std::printf("%8.1f |", static_cast<double>(row.tick) / 10.0);
        for (const Run &r : runs) {
            const double v = at(r.result.perf_series, row.tick);
            if (v >= 0.0)
                std::printf(" %14.1f", v);
            else
                std::printf(" %14s", "(dead)");
        }
        std::printf("\n");
    }
    std::printf("\n%-18s %6s %12s %12s %14s\n", "controller", "OOM?",
                "crash t(s)", "worst MB", "ops/s");
    for (const Run &r : runs) {
        std::printf("%-18s %6s %12.1f %12.1f %14.1f\n", r.name,
                    r.result.violated ? "YES" : "no",
                    r.result.violation_time_s,
                    r.result.worst_goal_metric, r.result.raw_tradeoff);
    }
    const double single_pole_drop_pct =
        100.0 * (1.0 - runs[1].result.raw_tradeoff /
                           runs[0].result.raw_tradeoff);
    std::printf(
        "\nSmartConf absorbs the allocation burst and keeps serving; "
        "the single-pole\ncontroller survives only by being so "
        "conservative that throughput drops %.0f%%\n(the paper's variant "
        "crashes at ~80 s instead); the no-virtual-goal\ncontroller has "
        "no headroom and dies during the ramp-up or when the\nburst "
        "lands (paper: JVM crash at ~36 s).\n",
        single_pole_drop_pct);

    const auto cs = runner.cache().stats();
    std::fprintf(stderr,
                 "[sweep] jobs=%zu wall=%.1f ms runs=%zu  cache: %llu "
                 "hits / %llu misses\n",
                 runner.jobs(), runner.lastWallMs(), jobs.size(),
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses));
    return 0;
}
