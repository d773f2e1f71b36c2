#include "scenarios/hb6728.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/smartconf.h"
#include "kvstore/memtable.h"
#include "kvstore/server.h"
#include "scenarios/control.h"
#include "workload/phases.h"
#include "workload/sharded.h"
#include "workload/tape.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "ipc.server.response.queue.maxsize";
constexpr const char *kMetricName = "memory_consumption_max";

ScenarioInfo
makeInfo()
{
    ScenarioInfo info;
    info.id = "HB6728";
    info.system = "HBase";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "ipc.server.response.queue.maxsize limits RPC-response queue "
        "size.";
    info.constraint_desc = "Too big, OOM";
    info.tradeoff_desc = "Too small, read/write throughput hurts";
    info.conditional = false;
    info.direct = false;
    info.hard = true;
    info.profiling_workload = "YCSB 0.0W, 2MB";
    info.phase1_workload = "0.0W, 2MB";
    info.phase2_workload = "0.3W, 2MB";
    info.buggy_default = 100000.0; // originally unbounded
    info.patch_default = 1024.0;   // 1 GB; still fails
    info.profiling_settings = {30.0, 60.0, 90.0, 120.0};
    for (double c = 40.0; c <= 240.0; c += 20.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = true;
    info.tradeoff_unit = "ops/s";
    return info;
}

kvstore::KvServerParams
serverParams(const Hb6728Options &opts, double initial_resp_mb)
{
    kvstore::KvServerParams sp;
    sp.heap_mb = opts.heap_mb;
    sp.request_queue_items = opts.request_queue_items;
    sp.response_queue_mb = initial_resp_mb;
    sp.service_ops_per_tick = 12.0;
    sp.network_mb_per_tick = opts.network_mb_per_tick;
    sp.response_size_factor = 1.0;
    sp.other_base_mb = 200.0;
    sp.other_walk_mb = 9.0;
    sp.other_max_mb = 310.0;
    sp.request_timeout = opts.request_timeout;
    return sp;
}

double
arrivalRate(const Hb6728Options &opts, sim::Tick t)
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
ycsbParams(const Hb6728Options &opts, double write_frac, double rate)
{
    workload::YcsbParams p;
    p.write_fraction = write_frac;
    p.request_size_mb = opts.request_size_mb;
    p.ops_per_tick = rate;
    p.burstiness = 0.25;
    return p;
}

ControlSpec
controlSpec(const Hb6728Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 8.0;
    spec.conf_min = 1.0;
    spec.conf_max = 100000.0;
    spec.goal_value = opts.heap_mb;
    spec.hard = true;
    return spec;
}

} // namespace

Hb6728Scenario::Hb6728Scenario() : Hb6728Scenario(Hb6728Options{}) {}

Hb6728Scenario::Hb6728Scenario(const Hb6728Options &opts)
    : TapeScenario(makeInfo()), opts_(opts)
{}

ProfileSummary
Hb6728Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConfI sc(*rt, kConfName);

    for (const double setting : info_.profiling_settings) {
        sim::Rng rng(seed ^ static_cast<std::uint64_t>(setting) * 977);
        kvstore::KvServer server(serverParams(opts_, setting),
                                 rng.fork(1));
        rt->setCurrentValue(kConfName, setting);
        workload::ShardedYcsbGenerator gen(
            ycsbParams(opts_, opts_.phase1_write_fraction,
                       opts_.arrival_base),
            rng.fork(2));

        const sim::Tick warmup = 100;
        int samples = 0;
        sim::Tick last_sample = -100;
        std::vector<workload::Op> ops; ///< reused arrival buffer
        for (sim::Tick t = 0; samples < 10; ++t) {
            gen.setOpsPerTick(arrivalRate(opts_, t));
            gen.tickInto(ops);
            server.accept(ops, t);
            server.step(t);
            // The threshold is *used* when responses queue against it;
            // sample at instants where the bound binds (queue more than
            // half full), spaced at least 5 ticks apart.  After a long
            // quiet stretch fall back to periodic sampling so profiling
            // always terminates.
            const bool binding =
                server.responseQueue().bytesMb() >= 0.5 * setting;
            const bool fallback = t > 3000 && t % 10 == 0;
            if (t >= warmup && t - last_sample >= 5 &&
                (binding || fallback)) {
                sc.setPerf(server.heap().usedMb(),
                           server.responseQueue().bytesMb());
                ++samples;
                last_sample = t;
            }
        }
    }
    return rt->finishProfiling(kConfName);
}

workload::YcsbParams
Hb6728Scenario::streamParams() const
{
    return ycsbParams(opts_, opts_.phase1_write_fraction,
                      opts_.arrival_base);
}

ScenarioResult
Hb6728Scenario::runOnTape(const Policy &policy, std::uint64_t seed,
                          workload::YcsbTape &tape) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.heap_mb;
    result.perf_series = sim::TimeSeries("used_memory_mb");
    result.conf_series = sim::TimeSeries("response.queue.maxsize");
    result.tradeoff_series = sim::TimeSeries("completed_ops");
    result.perf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));
    result.tradeoff_series.reserve(
        static_cast<std::size_t>(opts_.total_ticks));

    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConfI> sc;
    double initial_resp;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x6728);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConfI>(*rt, kConfName);
        initial_resp = 8.0;
    } else {
        initial_resp = policy.value;
    }

    kvstore::KvServer server(serverParams(opts_, initial_resp),
                             sim::Rng(seed).fork(1));
    // Writes land in an (uncontrolled) memstore whose occupancy adds
    // heap pressure once phase 2 introduces a write share.
    kvstore::MemtableParams mem_params;
    mem_params.flush_rate_mb_per_tick = 25.0;
    kvstore::Memtable memstore(opts_.memstore_cap_mb, mem_params);

    workload::PhasedSchedule<double> write_frac(
        opts_.phase1_write_fraction);
    write_frac.addPhase(opts_.phase1_ticks, opts_.phase2_write_fraction);
    // Tick t's stream parameters, a function of t alone.
    const auto set_params = [&](workload::ShardedYcsbGenerator &gen,
                                sim::Tick t) {
        gen.setWriteFraction(write_frac.at(t));
        gen.setOpsPerTick(arrivalRate(opts_, t));
    };

    const kvstore::JvmHeap::Slot memstore_slot =
        server.heap().slot("memstore");

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(initial_resp);

    assert(opts_.control_period >= 1);
    // The run ends at total_ticks or when the region server dies with
    // OutOfMemoryError; t is then the count of ticks run.
    sim::Tick t = 0;
    for (; t < opts_.total_ticks && !server.crashed(); ++t) {
        const std::span<const workload::Op> ops = tape.tick(t, set_params);
        for (const auto &op : ops) {
            if (op.type == workload::Op::Type::Write)
                memstore.write(op.size_mb, t);
        }
        memstore.step(t);
        server.heap().set(memstore_slot, memstore.occupancyMb());
        server.accept(ops, t);
        server.step(t);
        const double mem = server.heap().usedMb();

        if (sc && t % opts_.control_period == 0 && chaos.fire()) {
            sc->setPerf(chaos.measure(mem),
                        server.responseQueue().bytesMb());
            server.responseQueue().setMaxMb(std::max(
                1.0, chaos.actuate(sc->getConfReal())));
        }

        result.perf_series.record(t, mem);
        result.conf_series.record(t, server.responseQueue().maxMb());
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
