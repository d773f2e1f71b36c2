/**
 * @file
 * MR2820 walkthrough: guarding worker disks with a negative-gain
 * controller.
 *
 * `local.dir.minspacestart` gates task admission on free local disk.
 * The gain is negative — raising the gate lowers peak disk usage — and
 * the value is computed on the master and propagated to the workers.
 * SmartConf keeps the cluster busy while guaranteeing no out-of-disk:
 *
 *     ./mapreduce_diskguard        # SmartConf
 *     ./mapreduce_diskguard 0      # the old hard-coded default (OOD!)
 *     ./mapreduce_diskguard 400    # a conservative static setting
 */

#include <cstdio>

#include "exec/sweep.h"
#include "scenarios/mr2820.h"

int
main(int argc, char **argv)
{
    using namespace smartconf;
    using namespace smartconf::scenarios;

    Policy policy = Policy::smart();
    if (argc > 1)
        policy = Policy::makeStatic(
            exec::parseDoubleFlag("static", argv[1]));

    Mr2820Scenario scenario;
    std::printf("MR2820: %s\n", scenario.info().description.c_str());
    std::printf("policy: %s | disk %.0f MB per worker | jobs: "
                "WordCount(640MB,64MB,2) then (640MB,128MB,2)\n\n",
                policy.label.c_str(),
                scenario.options().disk_capacity_mb);

    const ScenarioResult r = scenario.run(policy, 1);

    std::printf("%8s %16s %18s %14s\n", "time(s)", "disk used(MB)",
                "minspacestart(MB)", "tasks done");
    const auto disk = r.perf_series.downsampleMax(20);
    const auto conf = r.conf_series.downsampleMax(20);
    const auto tasks = r.tradeoff_series.downsampleMax(20);
    for (std::size_t i = 0; i < disk.size(); ++i) {
        std::printf("%8.1f %16.1f %18.0f %14.0f\n",
                    static_cast<double>(disk[i].tick) / 10.0,
                    disk[i].value,
                    i < conf.size() ? conf[i].value : 0.0,
                    i < tasks.size() ? tasks[i].value : 0.0);
    }

    std::printf("\npeak disk: %.1f MB (capacity %.0f MB)  ->  %s\n",
                r.worst_goal_metric, r.goal_value,
                r.violated ? "OUT OF DISK, job lost"
                           : "constraint satisfied");
    if (!r.violated)
        std::printf("both jobs finished in %.1f s\n", r.raw_tradeoff);
    return 0;
}
