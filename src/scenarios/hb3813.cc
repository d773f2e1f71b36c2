#include "scenarios/hb3813.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/smartconf.h"
#include "kvstore/server.h"
#include "scenarios/control.h"
#include "workload/phases.h"
#include "workload/sharded.h"
#include "workload/tape.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "ipc.server.max.queue.size";
constexpr const char *kMetricName = "memory_consumption_max";

ScenarioInfo
makeInfo(const Hb3813Options &opts)
{
    ScenarioInfo info;
    info.id = "HB3813";
    info.system = "HBase";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "ipc.server.max.queue.size limits RPC-call queue size.";
    info.constraint_desc = "Too big, OOM";
    info.tradeoff_desc = "Too small, read/write throughput hurts";
    info.conditional = false;
    info.direct = false;
    info.hard = true;
    info.profiling_workload = "YCSB 1.0W, 1MB";
    info.phase1_workload = "1.0W, 1MB";
    info.phase2_workload = "1.0W, 2MB";
    info.buggy_default = 1000.0; // old default: OOM almost immediately
    info.patch_default = 100.0;  // patched default: OOM in phase 2
    info.profiling_settings = {40.0, 80.0, 120.0, 160.0};
    for (double c = 30.0; c <= 200.0; c += 10.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = true;
    info.tradeoff_unit = "ops/s";
    (void)opts;
    return info;
}

kvstore::KvServerParams
serverParams(const Hb3813Options &opts, std::size_t initial_queue)
{
    kvstore::KvServerParams sp;
    sp.heap_mb = opts.heap_mb;
    sp.request_queue_items = initial_queue;
    sp.response_queue_mb = 10000.0; // responses are not the story here
    sp.service_ops_per_tick = opts.service_ops_per_tick;
    sp.network_mb_per_tick = 10.0;
    sp.response_size_factor = 1.0;
    sp.other_base_mb = 200.0;
    sp.other_walk_mb = 9.0;
    sp.other_max_mb = 330.0;
    return sp;
}

/** Oscillating arrival rate: bursts above service, lulls below. */
double
arrivalRate(const Hb3813Options &opts, sim::Tick t)
{
    constexpr double kTwoPi = 6.28318530717958647;
    const double fast = kTwoPi * static_cast<double>(t) /
                        static_cast<double>(opts.arrival_period);
    const double slow = kTwoPi * static_cast<double>(t) /
                        static_cast<double>(opts.arrival_period2);
    return std::max(0.0, opts.arrival_base +
                             opts.arrival_amp * std::sin(fast) +
                             opts.arrival_amp2 * std::sin(slow));
}

workload::YcsbParams
ycsbParams(const Hb3813Options &opts, double req_mb, double rate)
{
    workload::YcsbParams p;
    p.write_fraction = opts.write_fraction;
    p.request_size_mb = req_mb;
    p.ops_per_tick = rate;
    p.burstiness = 0.25;
    return p;
}

ControlSpec
controlSpec(const Hb3813Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 0.0; // deliberately poor start (Fig. 6c)
    spec.conf_min = 0.0;
    spec.conf_max = 5000.0;
    spec.goal_value = opts.heap_mb;
    spec.hard = true;
    return spec;
}

} // namespace

Hb3813Scenario::Hb3813Scenario() : Hb3813Scenario(Hb3813Options{}) {}

Hb3813Scenario::Hb3813Scenario(const Hb3813Options &opts)
    : TapeScenario(makeInfo(opts)), opts_(opts)
{}

ProfileSummary
Hb3813Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConfI sc(*rt, kConfName);

    // One continuous profiling run that steps through the settings in
    // place (the paper "tries 4 different settings of C"): keeping the
    // same server alive means slow environmental drift cannot be
    // mistaken for a per-setting effect.
    sim::Rng rng(seed);
    kvstore::KvServer server(
        serverParams(opts_, static_cast<std::size_t>(
                                info_.profiling_settings.front())),
        rng.fork(1));
    workload::ShardedYcsbGenerator gen(
        ycsbParams(opts_, opts_.phase1_req_mb, opts_.arrival_base),
        rng.fork(2));

    sim::Tick t = 0;
    std::vector<workload::Op> ops; ///< reused arrival buffer
    for (const double setting : info_.profiling_settings) {
        server.requestQueue().setMaxItems(
            static_cast<std::size_t>(setting));
        rt->setCurrentValue(kConfName, setting);

        const sim::Tick warmup = t + 100;
        const sim::Tick sample_every = 10;
        int samples = 0;
        for (; samples < opts_.profile_samples; ++t) {
            gen.setOpsPerTick(arrivalRate(opts_, t));
            gen.tickInto(ops);
            server.accept(ops, t);
            server.step(t);
            if (t >= warmup && t % sample_every == 0) {
                // Paper: a measurement is taken every time an RPC request
                // is enqueued; we sample at a fixed cadence instead.
                sc.setPerf(server.heap().usedMb(),
                           static_cast<double>(
                               server.requestQueue().size()));
                ++samples;
            }
        }
    }
    return rt->finishProfiling(kConfName);
}

workload::YcsbParams
Hb3813Scenario::streamParams() const
{
    return ycsbParams(opts_, opts_.phase1_req_mb, opts_.arrival_base);
}

ScenarioResult
Hb3813Scenario::runOnTape(const Policy &policy, std::uint64_t seed,
                          workload::YcsbTape &tape) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.heap_mb;
    result.perf_series = sim::TimeSeries("used_memory_mb");
    result.conf_series = sim::TimeSeries("max.queue.size");
    result.tradeoff_series = sim::TimeSeries("completed_ops");
    result.perf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.tradeoff_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));

    // Smart policies synthesize their controller from a separate
    // profiling run (different seed: profiling != evaluation workload).
    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConfI> sc;
    std::size_t initial_queue;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x70F11E);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConfI>(*rt, kConfName);
        initial_queue = 0;
    } else {
        initial_queue = static_cast<std::size_t>(policy.value);
    }

    kvstore::KvServer server(serverParams(opts_, initial_queue),
                             sim::Rng(seed).fork(1));

    workload::PhasedSchedule<double> req_size(opts_.phase1_req_mb);
    req_size.addPhase(opts_.phase1_ticks, opts_.phase2_req_mb);
    // Tick t's stream parameters, a function of t alone.
    const auto set_params = [&](workload::ShardedYcsbGenerator &gen,
                                sim::Tick t) {
        gen.setRequestSizeMb(req_size.at(t));
        gen.setOpsPerTick(arrivalRate(opts_, t));
    };

    const kvstore::JvmHeap::Slot compaction_slot =
        server.heap().slot("compaction");

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(static_cast<double>(initial_queue));

    assert(opts_.control_period >= 1);
    // The run ends at total_ticks or when the region server dies with
    // OutOfMemoryError; t is then the count of ticks run.
    sim::Tick t = 0;
    for (; t < opts_.total_ticks && !server.crashed(); ++t) {
        server.accept(tape.tick(t, set_params), t);
        server.step(t);
        if (opts_.spike_mb > 0.0 && t >= opts_.spike_at) {
            const double progress =
                static_cast<double>(t - opts_.spike_at) /
                static_cast<double>(std::max<sim::Tick>(
                    1, opts_.spike_ramp));
            server.heap().set(
                compaction_slot,
                opts_.spike_mb * std::min(1.0, progress));
            server.heap().checkOom(t);
        }
        const double mem = server.heap().usedMb();

        if (sc && t % opts_.control_period == 0 && chaos.fire()) {
            sc->setPerf(chaos.measure(mem),
                        static_cast<double>(
                            server.requestQueue().size()));
            const int next = static_cast<int>(chaos.actuate(
                static_cast<double>(sc->getConf())));
            server.requestQueue().setMaxItems(
                static_cast<std::size_t>(std::max(0, next)));
        }

        result.perf_series.record(t, mem);
        result.conf_series.record(
            t, static_cast<double>(server.requestQueue().maxItems()));
        result.tradeoff_series.record(
            t, static_cast<double>(server.completedOps()));
    }

    result.violated = server.crashed();
    result.violation_time_s =
        server.crashed()
            ? static_cast<double>(server.heap().oomTick()) /
                  kTicksPerSecond
            : -1.0;
    const double duration_s =
        static_cast<double>(opts_.total_ticks) / kTicksPerSecond;
    result.raw_tradeoff =
        static_cast<double>(server.completedOps()) / duration_s;
    result.tradeoff = result.raw_tradeoff;
    result.worst_goal_metric = result.perf_series.max();
    result.mean_conf = result.conf_series.mean();
    result.ops_simulated = tape.generated(t);
    result.faults_injected = chaos.stats().injected();
    result.shard_ops = tape.shardOps(t);
    return result;
}

} // namespace smartconf::scenarios
