/**
 * @file
 * HD4995 walkthrough: throttling du under the namenode's global lock.
 *
 * `content-summary.limit` bounds how many files a du traverses per
 * lock acquisition.  This example shows SmartConf's *indirect*
 * configuration support with a custom transducer: the controller
 * reasons about lock-hold seconds; the transducer converts the desired
 * hold time into a file count.  The latency constraint tightens from
 * 20 s to 10 s mid-run via the user-facing setGoal API.
 *
 *     ./dfs_du_throttle            # SmartConf
 *     ./dfs_du_throttle 5000000    # the shipped default (violates)
 */

#include <cstdio>

#include "exec/sweep.h"
#include "scenarios/hd4995.h"

int
main(int argc, char **argv)
{
    using namespace smartconf;
    using namespace smartconf::scenarios;

    Policy policy = Policy::smart();
    if (argc > 1)
        policy = Policy::makeStatic(
            exec::parseDoubleFlag("static", argv[1]));

    Hd4995Scenario scenario;
    std::printf("HD4995: %s\n", scenario.info().description.c_str());
    std::printf("policy: %s | write-wait goal 20 s, tightening to 10 s "
                "at 300 s\n\n", policy.label.c_str());

    const ScenarioResult r = scenario.run(policy, 1);

    std::printf("%8s %18s %22s\n", "time(s)", "worst wait(s)",
                "content-summary.limit");
    const auto &waits = r.perf_series.points();
    const auto &conf = r.conf_series.points();
    for (const auto &pt : waits) {
        const std::size_t idx = static_cast<std::size_t>(pt.tick);
        const double limit =
            idx < conf.size() ? conf[idx].value : conf.back().value;
        std::printf("%8.1f %18.1f %22.0f\n",
                    static_cast<double>(pt.tick) / 10.0,
                    pt.value / 10.0, limit);
    }

    std::printf("\nworst write wait: %.1f s (phase-2 goal %.0f s)  ->  "
                "%s\n", r.worst_goal_metric / 10.0, r.goal_value / 10.0,
                r.violated ? "CONSTRAINT VIOLATED"
                           : "constraint satisfied");
    std::printf("mean du latency: %.1f s (the optimized trade-off)\n",
                r.raw_tradeoff);
    return 0;
}
