#include "scenarios/hd4995.h"

#include <algorithm>
#include <cmath>

#include "core/smartconf.h"
#include "dfs/namenode.h"
#include "scenarios/control.h"
#include "workload/dfsio.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "content-summary.limit";
constexpr const char *kMetricName = "write_block_latency_max";

ScenarioInfo
makeInfo(const Hd4995Options &opts)
{
    ScenarioInfo info;
    info.id = "HD4995";
    info.system = "HDFS";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "content-summary.limit limits #files traversed before du "
        "releases the big lock.";
    info.constraint_desc = "Too big, write blocked for long";
    info.tradeoff_desc = "Too small, du latency hurts";
    info.conditional = true;
    info.direct = false;
    info.hard = false;
    info.profiling_workload = "TestDFSIO multi-client";
    info.phase1_workload = "multi-clients, 20s";
    info.phase2_workload = "multi-clients, 10s";
    // The original code held the lock for the entire traversal; the
    // patch exposed the limit but kept an effectively unbounded default.
    info.buggy_default = 5000000.0;
    info.patch_default = 5000000.0;
    info.profiling_settings = {400000.0, 1000000.0, 2000000.0,
                               4000000.0};
    for (double c = 200000.0; c <= 3000000.0; c += 200000.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = false; // du latency: lower is better
    info.tradeoff_unit = "s";
    (void)opts;
    return info;
}

dfs::NamenodeParams
namenodeParams(const Hd4995Options &opts, double writes_per_tick)
{
    dfs::NamenodeParams np;
    np.traversal_files_per_tick = opts.traversal_files_per_tick;
    np.yield_overhead_ticks = opts.yield_overhead_ticks;
    np.write_service_per_tick = opts.write_service_per_tick;
    (void)writes_per_tick;
    return np;
}

workload::DfsioParams
dfsioParams(const Hd4995Options &opts, bool multi_client)
{
    workload::DfsioParams p;
    p.writes_per_tick =
        multi_client ? opts.writes_per_tick : opts.writes_per_tick / 6.0;
    p.burstiness = 0.25;
    p.du_period = opts.du_period;
    p.du_file_count = opts.du_files;
    return p;
}

ControlSpec
controlSpec(const Hd4995Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 100000.0;
    spec.conf_min = 20000.0;
    spec.conf_max = 10000000.0;
    spec.goal_value = opts.phase1_goal_ticks;
    spec.hard = false;
    // The controller operates on the lock-hold time in ticks.
    spec.deputy_min = 1.0;
    spec.deputy_max = 500.0;
    return spec;
}

/** Deputy (hold ticks) -> configuration (file count). */
std::unique_ptr<Transducer>
makeTransducer(const Hd4995Options &opts)
{
    const double rate = opts.traversal_files_per_tick;
    return std::make_unique<FunctionTransducer>(
        [rate](double hold_ticks) { return hold_ticks * rate; });
}

} // namespace

Hd4995Scenario::Hd4995Scenario() : Hd4995Scenario(Hd4995Options{}) {}

Hd4995Scenario::Hd4995Scenario(const Hd4995Options &opts)
    : Scenario(makeInfo(opts)), opts_(opts)
{}

ProfileSummary
Hd4995Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConfI sc(*rt, kConfName, makeTransducer(opts_));

    for (const double setting : info_.profiling_settings) {
        sim::Rng rng(seed ^ static_cast<std::uint64_t>(setting));
        dfs::Namenode nn(namenodeParams(opts_, opts_.writes_per_tick),
                         static_cast<std::uint64_t>(setting));
        rt->setCurrentValue(kConfName, setting);
        // Profiling runs the same TestDFSIO client mix the evaluation
        // uses, so the fitted gain reflects the full queue-drain effect.
        workload::DfsioGenerator gen(dfsioParams(opts_, true), rng.fork(2));

        // A chunk's worst write wait is only fully known once the write
        // backlog it created has drained; pair (hold, wait) then.
        int samples = 0;
        std::uint64_t chunks_seen = 0;
        double pending_hold = -1.0;
        const double full_hold =
            setting / opts_.traversal_files_per_tick;
        for (sim::Tick t = 0; samples < 10; ++t) {
            const workload::DfsioTick arrivals = gen.tick(t);
            nn.submit(arrivals.writes, arrivals.du_files, t);
            nn.step(t);
            if (nn.chunksCompleted() > chunks_seen) {
                chunks_seen = nn.chunksCompleted();
                // Skip partial (final) chunks: their hold does not
                // reflect the configured limit.
                pending_hold = nn.lastHoldTicks() >= 0.9 * full_hold
                                   ? nn.lastHoldTicks()
                                   : -1.0;
            } else if (pending_hold > 0.0 && nn.pendingWrites() == 0) {
                const double wait = nn.takeRecentMaxWait();
                if (wait > 0.0) {
                    sc.setPerf(wait, pending_hold);
                    ++samples;
                }
                pending_hold = -1.0;
            }
        }
    }
    return rt->finishProfiling(kConfName);
}

ScenarioResult
Hd4995Scenario::run(const Policy &policy, std::uint64_t seed) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.phase2_goal_ticks;
    result.perf_series = sim::TimeSeries("write_wait_ticks");
    result.conf_series = sim::TimeSeries("content-summary.limit");
    result.tradeoff_series = sim::TimeSeries("du_latency_ticks");
    // perf/tradeoff record per chunk / per du; conf records every tick.
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));

    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConfI> sc;
    double initial_limit;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x4995);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConfI>(*rt, kConfName,
                                          makeTransducer(opts_));
        initial_limit = 100000.0;
    } else {
        initial_limit = policy.value;
    }

    sim::Rng rng(seed);
    dfs::Namenode nn(namenodeParams(opts_, opts_.writes_per_tick),
                     static_cast<std::uint64_t>(initial_limit));
    workload::DfsioGenerator gen(dfsioParams(opts_, true), rng.fork(2));

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(initial_limit);

    double active_goal = opts_.phase1_goal_ticks;
    bool goal_changed = false;
    bool violated = false;
    double violation_tick = -1.0;
    double last_wait = -1.0, last_hold = -1.0;
    double prev_hold = -1.0;
    std::uint64_t chunks_seen = 0;
    std::size_t du_seen = 0;

    for (sim::Tick t = 0; t < opts_.total_ticks; ++t) {
        if (!goal_changed && t >= opts_.phase1_ticks) {
            goal_changed = true;
            active_goal = opts_.phase2_goal_ticks;
            if (sc) {
                sc->setGoal(active_goal);
                // Re-evaluate immediately so the next du chunk already
                // honours the tightened constraint.
                if (last_wait > 0.0 && chaos.fire()) {
                    sc->setPerf(chaos.measure(last_wait), last_hold);
                    nn.setSummaryLimit(static_cast<std::uint64_t>(
                        std::max(20000.0,
                                 chaos.actuate(sc->getConfReal()))));
                }
            }
        }

        const workload::DfsioTick arrivals = gen.tick(t);
        nn.submit(arrivals.writes, arrivals.du_files, t);
        nn.step(t);

        // Conditional control: invoked per completed du chunk.  The
        // waits measured since the previous chunk ended belong to that
        // previous chunk's lock hold; pair them accordingly.
        if (nn.chunksCompleted() > chunks_seen) {
            chunks_seen = nn.chunksCompleted();
            const double wait = nn.takeRecentMaxWait();
            if (wait > 0.0 && prev_hold > 0.0) {
                result.perf_series.record(t, wait);
                if (wait > active_goal * 1.05 + 1.0 && !violated) {
                    violated = true;
                    violation_tick = static_cast<double>(t);
                }
                last_wait = wait;
                last_hold = prev_hold;
                if (sc && chaos.fire()) {
                    sc->setPerf(chaos.measure(wait), prev_hold);
                    nn.setSummaryLimit(static_cast<std::uint64_t>(
                        std::max(20000.0,
                                 chaos.actuate(sc->getConfReal()))));
                }
            }
            prev_hold = nn.lastHoldTicks();
        }

        while (du_seen < nn.duResults().size()) {
            result.tradeoff_series.record(
                t, nn.duResults()[du_seen].latency_ticks);
            ++du_seen;
        }
        result.conf_series.record(
            t, static_cast<double>(nn.summaryLimit()));
    }

    result.violated = violated;
    result.violation_time_s =
        violated ? violation_tick / kTicksPerSecond : -1.0;
    result.worst_goal_metric = result.perf_series.max();

    // Trade-off: mean du latency in seconds (lower is better).
    double du_sum = 0.0;
    for (const auto &du : nn.duResults())
        du_sum += du.latency_ticks;
    const double du_mean_s =
        nn.duResults().empty()
            ? static_cast<double>(opts_.total_ticks) / kTicksPerSecond
            : du_sum / static_cast<double>(nn.duResults().size()) /
                  kTicksPerSecond;
    result.raw_tradeoff = du_mean_s;
    result.tradeoff = du_mean_s > 0.0 ? 1.0 / du_mean_s : 0.0;
    result.mean_conf = result.conf_series.mean();
    result.ops_simulated = gen.generated();
    result.faults_injected = chaos.stats().injected();
    result.shard_ops.assign(gen.shardOps().begin(),
                            gen.shardOps().end());
    return result;
}

} // namespace smartconf::scenarios
