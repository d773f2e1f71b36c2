#include "scenarios/ca6059.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/smartconf.h"
#include "kvstore/heap.h"
#include "kvstore/memtable.h"
#include "scenarios/control.h"
#include "workload/phases.h"
#include "workload/sharded.h"
#include "workload/tape.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "memtable_total_space_in_mb";
constexpr const char *kMetricName = "memory_consumption_max";
constexpr double kBlockedLatency = 10.0; ///< penalty charged to a block

ScenarioInfo
makeInfo()
{
    ScenarioInfo info;
    info.id = "CA6059";
    info.system = "Cassandra";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "memtable_total_space_in_mb limits the memtable size.";
    info.constraint_desc = "Too big, OOM";
    info.tradeoff_desc = "Too small, write latency hurts";
    info.conditional = false;
    info.direct = false;
    info.hard = true;
    info.profiling_workload = "YCSB-A 0.5W, 1MB";
    info.phase1_workload = "1.0W, 1MB, C0";
    info.phase2_workload = "0.9W, 1MB, C0.5";
    info.buggy_default = 300.0; // conservative-looking, OOMs in phase 2
    info.patch_default = 100.0; // survives, but write latency suffers
    info.profiling_settings = {50.0, 100.0, 150.0, 200.0};
    for (double c = 60.0; c <= 260.0; c += 20.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = false; // latency: lower is better
    info.tradeoff_unit = "ticks";
    return info;
}

kvstore::MemtableParams
memtableParams()
{
    kvstore::MemtableParams mp;
    mp.flush_rate_mb_per_tick = 25.0;
    mp.flush_penalty = 4.0;
    mp.base_write_latency = 1.0;
    mp.emergency_headroom = 1.25;
    mp.flush_stall_ticks = 3.0;
    return mp;
}

workload::YcsbParams
ycsbParams(const Ca6059Options &opts, double write_frac)
{
    workload::YcsbParams p;
    p.write_fraction = write_frac;
    p.request_size_mb = opts.request_size_mb;
    p.ops_per_tick = opts.ops_per_tick;
    p.burstiness = 0.3;
    return p;
}

ControlSpec
controlSpec(const Ca6059Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 16.0;
    spec.conf_min = 8.0;
    spec.conf_max = 2000.0;
    spec.goal_value = opts.heap_mb;
    spec.hard = true;
    return spec;
}

/** Bounded random walk for the non-memtable heap. */
double
otherWalk(const Ca6059Options &opts, sim::Rng &rng, double current)
{
    const double next = current + rng.uniform(-opts.other_walk_mb,
                                              opts.other_walk_mb);
    return std::clamp(next, opts.other_base_mb * 0.8, opts.other_max_mb);
}

} // namespace

Ca6059Scenario::Ca6059Scenario() : Ca6059Scenario(Ca6059Options{}) {}

Ca6059Scenario::Ca6059Scenario(const Ca6059Options &opts)
    : TapeScenario(makeInfo()), opts_(opts)
{}

ProfileSummary
Ca6059Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConfI sc(*rt, kConfName);

    for (const double setting : info_.profiling_settings) {
        sim::Rng rng(seed ^ static_cast<std::uint64_t>(setting) * 131);
        kvstore::JvmHeap heap(opts_.heap_mb);
        kvstore::Memtable memtable(setting, memtableParams());
        rt->setCurrentValue(kConfName, setting);
        // Profiling uses the standard YCSB-A 50/50 mix (Sec. 6.1).
        workload::ShardedYcsbGenerator gen(ycsbParams(opts_, 0.5), rng.fork(2));

        double other = opts_.other_base_mb;
        const sim::Tick warmup = 50;
        int samples = 0;
        std::uint64_t flushes_seen = 0;
        std::vector<workload::Op> ops; ///< reused arrival buffer
        const kvstore::JvmHeap::Slot other_slot = heap.slot("other");
        const kvstore::JvmHeap::Slot memtable_slot =
            heap.slot("memtable");
        for (sim::Tick t = 0; samples < 10; ++t) {
            other = otherWalk(opts_, rng, other);
            gen.tickInto(ops);
            for (const auto &op : ops) {
                if (op.type == workload::Op::Type::Write)
                    memtable.write(op.size_mb, t);
            }
            memtable.step(t);
            heap.set(other_slot, other);
            heap.set(memtable_slot, memtable.occupancyMb());
            // The configuration is *used* when a flush-or-not decision
            // is made; profiling samples at those instants (occupancy
            // at the cap), mirroring "every time C is used".
            if (t >= warmup && memtable.flushCount() > flushes_seen) {
                flushes_seen = memtable.flushCount();
                sc.setPerf(heap.usedMb(), memtable.occupancyMb());
                ++samples;
            }
            if (t < warmup)
                flushes_seen = memtable.flushCount();
        }
    }
    return rt->finishProfiling(kConfName);
}

workload::YcsbParams
Ca6059Scenario::streamParams() const
{
    return ycsbParams(opts_, opts_.phase1_write_fraction);
}

ScenarioResult
Ca6059Scenario::runOnTape(const Policy &policy, std::uint64_t seed,
                          workload::YcsbTape &tape) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.heap_mb;
    result.perf_series = sim::TimeSeries("used_memory_mb");
    result.conf_series = sim::TimeSeries("memtable_total_space_in_mb");
    result.tradeoff_series = sim::TimeSeries("avg_write_latency");
    result.perf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.tradeoff_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));

    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConfI> sc;
    double initial_cap;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x6059);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConfI>(*rt, kConfName);
        initial_cap = 16.0;
    } else {
        initial_cap = policy.value;
    }

    sim::Rng walk_rng = sim::Rng(seed).fork(1);
    kvstore::JvmHeap heap(opts_.heap_mb);
    kvstore::Memtable memtable(initial_cap, memtableParams());

    workload::PhasedSchedule<double> write_frac(
        opts_.phase1_write_fraction);
    write_frac.addPhase(opts_.phase1_ticks, opts_.phase2_write_fraction);
    // Tick t's stream parameters, a function of t alone.
    const auto set_params = [&](workload::ShardedYcsbGenerator &gen,
                                sim::Tick t) {
        gen.setWriteFraction(write_frac.at(t));
    };
    workload::PhasedSchedule<double> cache_ratio(0.0);
    cache_ratio.addPhase(opts_.phase1_ticks, opts_.phase2_cache_ratio);

    double other = opts_.other_base_mb;
    double cache = 0.0;
    double latency_sum = 0.0;
    std::int64_t latency_count = 0;

    const kvstore::JvmHeap::Slot other_slot = heap.slot("other");
    const kvstore::JvmHeap::Slot cache_slot = heap.slot("cache");
    const kvstore::JvmHeap::Slot memtable_slot = heap.slot("memtable");

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(initial_cap);

    assert(opts_.control_period >= 1);
    // The run ends at total_ticks or when the Cassandra node dies with
    // OutOfMemoryError; t is then the count of ticks run.
    sim::Tick t = 0;
    for (; t < opts_.total_ticks && !heap.oom(); ++t) {
        // Read index cache warms gradually toward its target share.
        const double cache_target =
            cache_ratio.at(t) * opts_.cache_full_mb;
        if (cache < cache_target) {
            cache = std::min(cache_target,
                             cache + opts_.cache_fill_per_tick);
        }
        other = otherWalk(opts_, walk_rng, other);

        for (const auto &op : tape.tick(t, set_params)) {
            if (op.type != workload::Op::Type::Write)
                continue;
            const double lat = memtable.write(op.size_mb, t);
            latency_sum += lat < 0.0 ? kBlockedLatency : lat;
            ++latency_count;
        }
        memtable.step(t);

        heap.set(other_slot, other);
        heap.set(cache_slot, cache);
        heap.set(memtable_slot, memtable.occupancyMb());
        heap.checkOom(t);
        const double mem = heap.usedMb();

        if (sc && t % opts_.control_period == 0 && chaos.fire()) {
            sc->setPerf(chaos.measure(mem), memtable.occupancyMb());
            memtable.setCapMb(
                std::max(8.0, chaos.actuate(sc->getConfReal())));
        }

        result.perf_series.record(t, mem);
        result.conf_series.record(t, memtable.capMb());
        const double avg_lat =
            latency_count > 0
                ? latency_sum / static_cast<double>(latency_count)
                : 0.0;
        result.tradeoff_series.record(t, avg_lat);
    }

    result.violated = heap.oom();
    result.violation_time_s =
        heap.oom()
            ? static_cast<double>(heap.oomTick()) / kTicksPerSecond
            : -1.0;
    result.raw_tradeoff =
        latency_count > 0
            ? latency_sum / static_cast<double>(latency_count)
            : kBlockedLatency;
    // Canonical trade-off score is higher-is-better: invert latency.
    result.tradeoff =
        result.raw_tradeoff > 0.0 ? 1.0 / result.raw_tradeoff : 0.0;
    result.worst_goal_metric = result.perf_series.max();
    result.mean_conf = result.conf_series.mean();
    result.ops_simulated = tape.generated(t);
    result.faults_injected = chaos.stats().injected();
    result.shard_ops = tape.shardOps(t);
    return result;
}

} // namespace smartconf::scenarios
