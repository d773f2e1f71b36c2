/**
 * @file
 * HB3813 walkthrough: auto-adjusting an RPC queue bound against OOM.
 *
 * Runs the paper's flagship case study (Fig. 6) and prints the three
 * curves: cumulative throughput, used memory and the dynamically
 * adjusted `ipc.server.max.queue.size`.  Compare with a static setting
 * by passing a number as the first argument:
 *
 *     ./kvstore_autotune          # SmartConf
 *     ./kvstore_autotune 100      # static max.queue.size = 100
 */

#include <cstdio>
#include <string>

#include "exec/sweep.h"
#include "scenarios/hb3813.h"

int
main(int argc, char **argv)
{
    using namespace smartconf;
    using namespace smartconf::scenarios;

    Policy policy = Policy::smart();
    if (argc > 1)
        policy = Policy::makeStatic(
            exec::parseDoubleFlag("static", argv[1]));

    Hb3813Scenario scenario;
    std::printf("HB3813: %s\n", scenario.info().description.c_str());
    std::printf("policy: %s | heap %.0f MB | request size doubles at "
                "200 s\n\n",
                policy.label.c_str(), scenario.options().heap_mb);

    const ScenarioResult r = scenario.run(policy, 1);

    std::printf("%8s %14s %16s %16s\n", "time(s)", "memory(MB)",
                "max.queue.size", "completed ops");
    const auto mem = r.perf_series.downsampleMax(24);
    const auto conf = r.conf_series.downsampleMax(24);
    const auto ops = r.tradeoff_series.downsampleMax(24);
    for (std::size_t i = 0; i < mem.size(); ++i) {
        std::printf("%8.1f %14.1f %16.0f %16.0f\n",
                    static_cast<double>(mem[i].tick) / 10.0,
                    mem[i].value,
                    i < conf.size() ? conf[i].value : 0.0,
                    i < ops.size() ? ops[i].value : 0.0);
    }

    std::printf("\nworst memory: %.1f MB (goal %.0f MB)  ->  %s\n",
                r.worst_goal_metric, r.goal_value,
                r.violated ? "OUT OF MEMORY" : "constraint satisfied");
    std::printf("throughput: %.1f ops/s\n", r.raw_tradeoff);
    if (r.violated)
        std::printf("crashed at t = %.1f s\n", r.violation_time_s);
    return 0;
}
