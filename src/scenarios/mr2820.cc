#include "scenarios/mr2820.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/sensor.h"
#include "core/smartconf.h"
#include "mapreduce/cluster.h"
#include "scenarios/control.h"

namespace smartconf::scenarios {

namespace {

constexpr double kTicksPerSecond = 10.0;
constexpr const char *kConfName = "local.dir.minspacestart";
constexpr const char *kMetricName = "disk_consumption_max";

ScenarioInfo
makeInfo(const Mr2820Options &opts)
{
    ScenarioInfo info;
    info.id = "MR2820";
    info.system = "MapReduce";
    info.conf_name = kConfName;
    info.metric_name = kMetricName;
    info.description =
        "local.dir.minspacestart decides if a worker has enough disk to "
        "run a task.";
    info.constraint_desc = "Too small, OOD";
    info.tradeoff_desc = "Too big, low utility (job latency hurts)";
    info.conditional = true;
    info.direct = true;
    info.hard = true;
    info.profiling_workload = "WordCount 2G, 64MB, 1";
    info.phase1_workload = "640MB, 64MB, 2";
    info.phase2_workload = "640MB, 128MB, 2";
    info.buggy_default = 0.0; // hard-coded zero: admit regardless of disk
    info.patch_default = 1.0; // patched to 1 MB: still fails
    info.profiling_settings = {150.0, 250.0, 350.0, 450.0};
    for (double c = 100.0; c <= 600.0; c += 25.0)
        info.static_candidates.push_back(c);
    info.tradeoff_higher_better = false; // makespan: lower is better
    info.tradeoff_unit = "s";
    (void)opts;
    return info;
}

mapreduce::ClusterParams
clusterParams(const Mr2820Options &opts)
{
    mapreduce::ClusterParams cp;
    cp.workers = opts.workers;
    cp.disk_capacity_mb = opts.disk_capacity_mb;
    cp.other_base_mb = opts.other_base_mb;
    cp.other_walk_mb = opts.other_walk_mb;
    cp.other_max_mb = opts.other_max_mb;
    cp.task_duration = opts.task_duration;
    cp.fetch_delay = opts.fetch_delay;
    return cp;
}

ControlSpec
controlSpec(const Mr2820Options &opts)
{
    ControlSpec spec;
    spec.conf_name = kConfName;
    spec.metric_name = kMetricName;
    spec.initial = 400.0; // conservative start; controller relaxes it
    // Admissions are irrevocable and spills materialize over a whole
    // task duration, so a worker can fill all of its slots on
    // consecutive heartbeats before any of that spill is visible on
    // disk.  The gate must therefore always reserve at least one
    // admittable burst — conf values below this floor cannot be safe
    // no matter how empty the sensed disk looks (the inter-wave
    // trough is exactly where a naive controller relaxes to zero and
    // then eats a full burst of the next job's larger spills).
    const auto burst_mb = [](const workload::WordCountJob &j) {
        return static_cast<double>(j.parallelism) * j.spillPerTaskMb();
    };
    spec.conf_min = 1.3 * std::max(burst_mb(opts.phase1_job),
                                   burst_mb(opts.phase2_job));
    spec.conf_max = 1200.0;
    // The admission gate actuates in whole-task-spill quanta and the
    // disk walk keeps moving between control invocations, so the
    // setpoint sits a guard band below the hard capacity: aiming
    // exactly at the cliff converts sub-quantum jitter into OOD.
    spec.goal_value = opts.disk_capacity_mb - 15.0;
    spec.hard = true;
    return spec;
}

} // namespace

Mr2820Scenario::Mr2820Scenario() : Mr2820Scenario(Mr2820Options{}) {}

Mr2820Scenario::Mr2820Scenario(const Mr2820Options &opts)
    : Scenario(makeInfo(opts)), opts_(opts)
{}

ProfileSummary
Mr2820Scenario::profile(std::uint64_t seed) const
{
    auto rt = makeProfilingRuntime(controlSpec(opts_));
    SmartConf sc(*rt, kConfName);

    for (const double setting : info_.profiling_settings) {
        sim::Rng rng(seed ^ static_cast<std::uint64_t>(setting) * 389);
        mapreduce::MrCluster cluster(
            clusterParams(opts_), static_cast<std::uint64_t>(setting),
            rng.fork(1));
        cluster.submitJob(opts_.profiling_job, 0);
        rt->setCurrentValue(kConfName, setting);

        // Instantaneous samples deliberately span the whole admission
        // cycle — troughs between waves as well as peaks — because the
        // trough-to-peak swing is exactly the disturbance the virtual
        // goal must leave room for (a whole admitted wave can be in
        // flight when the disk fills).
        const sim::Tick warmup = 120;
        int samples = 0;
        for (sim::Tick t = 0; samples < 10 && t < 4000; ++t) {
            cluster.step(t);
            if (cluster.jobDone()) {
                // Keep the disk exercised for the whole profiling slot.
                cluster.submitJob(opts_.profiling_job, t);
            }
            if (t >= warmup && t % 25 == 0) {
                sc.setPerf(cluster.projectedDiskUsedMb());
                ++samples;
            }
        }
    }
    return rt->finishProfiling(kConfName);
}

ScenarioResult
Mr2820Scenario::run(const Policy &policy, std::uint64_t seed) const
{
    ScenarioResult result;
    result.scenario_id = info_.id;
    result.policy_label = policy.label;
    result.goal_value = opts_.disk_capacity_mb;
    result.perf_series = sim::TimeSeries("disk_used_mb");
    result.conf_series = sim::TimeSeries("minspacestart_mb");
    result.tradeoff_series = sim::TimeSeries("completed_tasks");
    result.perf_series.reserve(
        static_cast<std::size_t>(opts_.max_ticks));
    result.conf_series.reserve(
        static_cast<std::size_t>(opts_.max_ticks));
    result.tradeoff_series.reserve(
        static_cast<std::size_t>(opts_.max_ticks));

    std::unique_ptr<SmartConfRuntime> rt;
    std::unique_ptr<SmartConf> sc;
    assert(opts_.control_period >= 1);
    // Peak-hold over ~one task duration: admissions are irrevocable,
    // so the controller must keep seeing the wave peak it committed
    // to, not the trough after outputs are fetched.
    WindowMaxSensor peak_sensor(
        static_cast<std::size_t>(opts_.task_duration /
                                 opts_.control_period) + 1);
    // Model-based component: the master knows split sizes, so while
    // tasks are pending it can predict what the disk would reach if
    // the next wave were admitted.  Feeding the prediction removes the
    // plant lag (spills take a task duration to materialize) that
    // would otherwise wind the controller down between waves.
    double initial;
    if (policy.isSmart()) {
        const ProfileSummary summary = profile(seed ^ 0x2820);
        rt = makeControlRuntime(controlSpec(opts_), policy, summary);
        sc = std::make_unique<SmartConf>(*rt, kConfName);
        initial = 400.0;
    } else {
        initial = policy.value;
    }

    sim::Rng rng(seed);
    mapreduce::MrCluster cluster(clusterParams(opts_),
                                 static_cast<std::uint64_t>(initial),
                                 rng.fork(1));

    // Phase 1 job runs to completion, then the phase 2 job is submitted
    // (two jobs with different split sizes and parallelism, Table 6).
    int phase = 0;
    cluster.submitJob(opts_.phase1_job, 0);

    sim::Tick finished_at = opts_.max_ticks;
    std::uint64_t tasks_done_before = 0;

    const fault::ChaosHooks chaos = chaosHooksFor(policy, seed);
    chaos.seedActuation(initial);

    // One control invocation: sense (peak-hold + next-wave prediction)
    // and push the adjusted gate to the master.
    auto invoke_control = [&](bool force_pending_wave) {
        // The probe runs even when the invocation is suppressed: a
        // skipped controller does not stop the sensor accumulating.
        peak_sensor.observe(cluster.projectedDiskUsedMb());
        if (!chaos.fire())
            return;
        const workload::WordCountJob &job =
            phase == 0 ? opts_.phase1_job : opts_.phase2_job;
        // Admission is one task per worker heartbeat, so the next
        // commitment quantum is a single task's spill.
        const double wave_mb = job.spillPerTaskMb();
        // "What would the disk reach if the next wave were admitted
        // right now?"  While tasks are waiting, that is the quantity
        // the gate must keep below the constraint.  The wave estimate
        // is padded 20% for spill-size jitter and co-resident growth,
        // like any real reservation.
        const double predicted =
            cluster.pendingTasks() > 0 || force_pending_wave
                ? cluster.projectedDiskUsedMb() + 1.2 * wave_mb
                : 0.0;
        sc->setPerf(
            chaos.measure(std::max(peak_sensor.read(), predicted)));
        // Master computes the new value; MrCluster models the
        // master->slave propagation delay internally.
        cluster.setMinSpaceStart(
            std::max(0.0, chaos.actuate(sc->getConfReal())));
    };

    for (sim::Tick t = 0; t < opts_.max_ticks; ++t) {
        cluster.step(t);
        const double disk = cluster.maxDiskUsedMb();

        if (sc && t % opts_.control_period == 0)
            invoke_control(false);

        result.perf_series.record(t, disk);
        result.conf_series.record(t, cluster.minSpaceStart());
        result.tradeoff_series.record(
            t, static_cast<double>(tasks_done_before +
                                   cluster.completedTasks()));

        if (cluster.ood())
            break; // a worker ran out of disk: the job is lost

        if (cluster.jobDone()) {
            if (phase == 0) {
                phase = 1;
                tasks_done_before += cluster.completedTasks();
                cluster.submitJob(opts_.phase2_job, t);
                // The scheduler re-reads its configuration when a new
                // job arrives — before any of its tasks can start.
                if (sc)
                    invoke_control(true);
            } else {
                finished_at = t;
                break;
            }
        }
    }

    result.violated = cluster.ood();
    result.violation_time_s =
        cluster.ood()
            ? static_cast<double>(cluster.oodTick()) / kTicksPerSecond
            : -1.0;

    // Trade-off: makespan of the two jobs in seconds (lower is better).
    const double makespan_s =
        cluster.ood()
            ? static_cast<double>(opts_.max_ticks) / kTicksPerSecond
            : static_cast<double>(finished_at) / kTicksPerSecond;
    result.raw_tradeoff = makespan_s;
    result.tradeoff = makespan_s > 0.0 ? 1.0 / makespan_s : 0.0;
    result.worst_goal_metric = result.perf_series.max();
    result.mean_conf = result.conf_series.mean();
    result.ops_simulated =
        tasks_done_before + cluster.completedTasks();
    result.faults_injected = chaos.stats().injected();
    // Cluster shard counters span both job phases (they never reset on
    // submitJob), so they sum to ops_simulated.
    result.shard_ops.assign(cluster.shardOps().begin(),
                            cluster.shardOps().end());
    return result;
}

} // namespace smartconf::scenarios
