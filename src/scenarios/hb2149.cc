#include "scenarios/hb2149.h"

#include <algorithm>
#include <cmath>

#include "core/smartconf.h"
#include "kvstore/memstore.h"
#include "scenarios/control.h"
#include "workload/sharded.h"
#include "workload/tape.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "global.memstore.lowerLimit";
constexpr const char *kMetricName = "write_block_latency_max";

ScenarioInfo
makeInfo(const Hb2149Options &opts)
{
    ScenarioInfo info;
    info.id = "HB2149";
    info.system = "HBase";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "global.memstore.lowerLimit decides how much memstore data is "
        "flushed.";
    info.constraint_desc = "Too big, write blocked for too long";
    info.tradeoff_desc = "Too small, write blocked too often";
    info.conditional = true;
    info.direct = true;
    info.hard = false;
    info.profiling_workload = "YCSB 1.0W, 1MB";
    info.phase1_workload = "1.0W, 1MB, 10s";
    info.phase2_workload = "1.0W, 1MB, 5s";
    info.buggy_default = 128.0; // flush amount: blocks ~14.8 s
    info.patch_default = 24.0;  // blocks ~4.4 s: meets both goals
    info.profiling_settings = {16.0, 48.0, 96.0, 160.0};
    for (double c = 8.0; c <= 80.0; c += 4.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = true;
    info.tradeoff_unit = "ops/s";
    (void)opts;
    return info;
}

kvstore::MemstoreParams
memstoreParams(const Hb2149Options &opts)
{
    kvstore::MemstoreParams mp;
    mp.upper_limit_mb = opts.upper_limit_mb;
    mp.flush_rate_mb_per_tick = opts.flush_rate_mb_per_tick;
    mp.flush_setup_ticks = opts.flush_setup_ticks;
    return mp;
}

workload::YcsbParams
ycsbParams(const Hb2149Options &opts)
{
    workload::YcsbParams p;
    p.write_fraction = 1.0;
    p.request_size_mb = opts.request_size_mb;
    p.ops_per_tick = opts.ops_per_tick;
    p.burstiness = 0.2;
    return p;
}

ControlSpec
controlSpec(const Hb2149Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 8.0;
    spec.conf_min = 4.0;
    spec.conf_max = 200.0;
    spec.goal_value = opts.phase1_goal_ticks;
    spec.hard = false; // latency SLA: soft constraint
    return spec;
}

} // namespace

Hb2149Scenario::Hb2149Scenario() : Hb2149Scenario(Hb2149Options{}) {}

Hb2149Scenario::Hb2149Scenario(const Hb2149Options &opts)
    : TapeScenario(makeInfo(opts)), opts_(opts)
{}

ProfileSummary
Hb2149Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConf sc(*rt, kConfName);

    for (const double setting : info_.profiling_settings) {
        sim::Rng rng(seed ^ static_cast<std::uint64_t>(setting) * 541);
        kvstore::Memstore memstore(setting, memstoreParams(opts_));
        workload::ShardedYcsbGenerator gen(ycsbParams(opts_), rng.fork(2));

        // Profiling records one sample per completed blocking flush;
        // SmartConf's profiler needs the (config, perf) pair, so the
        // handle's current value is pinned to the profiled setting.
        int flushes = 0;
        std::uint64_t seen = 0;
        std::vector<workload::Op> ops; ///< reused arrival buffer
        for (sim::Tick t = 0; flushes < 10; ++t) {
            gen.tickInto(ops);
            for (const auto &op : ops) {
                if (op.type == workload::Op::Type::Write)
                    memstore.write(op.size_mb, t);
            }
            memstore.step(t);
            if (memstore.flushCount() > seen && !memstore.blocked()) {
                seen = memstore.flushCount();
                // Pin the recorded config to the profiled setting.
                rt->setCurrentValue(kConfName, setting);
                sc.setPerf(memstore.lastBlockTicks());
                ++flushes;
            }
        }
    }
    return rt->finishProfiling(kConfName);
}

workload::YcsbParams
Hb2149Scenario::streamParams() const
{
    return ycsbParams(opts_);
}

ScenarioResult
Hb2149Scenario::runOnTape(const Policy &policy, std::uint64_t seed,
                          workload::YcsbTape &tape) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.phase2_goal_ticks;
    result.perf_series = sim::TimeSeries("block_latency_ticks");
    result.conf_series = sim::TimeSeries("flush_amount_mb");
    result.tradeoff_series = sim::TimeSeries("accepted_writes");
    // perf_series only records on flush completion; the other two
    // record every tick.
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.tradeoff_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));

    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConf> sc;
    double initial_amount;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x2149);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConf>(*rt, kConfName);
        initial_amount = 8.0;
    } else {
        initial_amount = policy.value;
    }

    kvstore::Memstore memstore(initial_amount, memstoreParams(opts_));

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(initial_amount);

    std::uint64_t accepted = 0;
    bool goal_changed = false;
    // Blocks are judged against the goal in force when the flush began.
    double active_goal = opts_.phase1_goal_ticks;
    double flush_start_goal = active_goal;
    bool violated = false;
    double violation_tick = -1.0;
    double worst_block = 0.0;
    bool was_blocked = false;

    sim::Tick t = 0; // after the loop: the count of ticks run
    for (; t < opts_.total_ticks; ++t) {
        // Run-time goal change through the user-facing setGoal API.
        if (!goal_changed && t >= opts_.phase1_ticks) {
            goal_changed = true;
            active_goal = opts_.phase2_goal_ticks;
            if (sc) {
                sc->setGoal(active_goal);
                // Re-evaluate immediately so the flush that starts next
                // already honours the tightened constraint.
                if (worst_block > 0.0 && !memstore.blocked() &&
                    chaos.fire()) {
                    sc->setPerf(
                        chaos.measure(memstore.lastBlockTicks()));
                    memstore.setFlushAmountMb(std::max(
                        4.0, chaos.actuate(sc->getConfReal())));
                }
            }
        }

        if (!memstore.blocked() && was_blocked) {
            // A blocking flush just completed: measure and adjust.
            const double block = memstore.lastBlockTicks();
            worst_block = std::max(worst_block, block);
            if (block > flush_start_goal * 1.02 + 1.0 && !violated) {
                violated = true;
                violation_tick = static_cast<double>(t);
            }
            result.perf_series.record(t, block);
            if (sc && chaos.fire()) {
                sc->setPerf(chaos.measure(block));
                memstore.setFlushAmountMb(std::max(
                    4.0, chaos.actuate(sc->getConfReal())));
            }
        }
        if (!memstore.blocked())
            flush_start_goal = active_goal;
        was_blocked = memstore.blocked();

        for (const auto &op : tape.tick(t)) {
            if (op.type != workload::Op::Type::Write)
                continue;
            if (memstore.write(op.size_mb, t))
                ++accepted;
        }
        memstore.step(t);

        result.conf_series.record(t, memstore.flushAmountMb());
        result.tradeoff_series.record(
            t, static_cast<double>(accepted));
    }

    result.violated = violated;
    result.violation_time_s =
        violated ? violation_tick / kTicksPerSecond : -1.0;
    result.worst_goal_metric = worst_block;
    const double duration_s =
        static_cast<double>(opts_.total_ticks) / kTicksPerSecond;
    result.raw_tradeoff = static_cast<double>(accepted) / duration_s;
    result.tradeoff = result.raw_tradeoff;
    result.mean_conf = result.conf_series.mean();
    result.ops_simulated = tape.generated(t);
    result.faults_injected = chaos.stats().injected();
    result.shard_ops = tape.shardOps(t);
    return result;
}

} // namespace smartconf::scenarios
