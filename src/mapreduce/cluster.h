#ifndef SMARTCONF_MAPREDUCE_CLUSTER_H_
#define SMARTCONF_MAPREDUCE_CLUSTER_H_

/**
 * @file
 * MapReduce worker cluster with disk-gated task admission (MR2820).
 *
 * `local.dir.minspacestart` decides whether a worker has enough local
 * disk to start another task: a task is admitted only when free disk >=
 * minspacestart.  Admitted map tasks spill intermediate output onto the
 * local disk for the duration of the task; outputs are retained until
 * reducers fetch them.  The local disk also hosts workload-dependent
 * "other data" that fluctuates.
 *
 *  - minspacestart too small: tasks are admitted into thin headroom and
 *    their spills run the disk out of space — out-of-disk (OOD), the
 *    hard-constraint failure users reported;
 *  - minspacestart too large: workers sit idle despite ample space, and
 *    job latency suffers (the trade-off metric).
 *
 * The configuration is *direct* with a negative gain: raising it lowers
 * peak disk usage.  In the real system the value is computed on the
 * master and must reach the slaves; the cluster models that propagation
 * with a one-tick delay (the "Others" code-change row in Table 7).
 */

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"
#include "workload/sharded.h"
#include "workload/wordcount.h"

namespace smartconf::mapreduce {

/** Worker and task mechanics. */
struct ClusterParams
{
    std::size_t workers = 2;
    double disk_capacity_mb = 1000.0;  ///< local disk per worker
    double other_base_mb = 250.0;      ///< non-MR data floor
    double other_walk_mb = 15.0;       ///< per-tick random-walk bound
    double other_max_mb = 420.0;       ///< cap of the walk
    sim::Tick task_duration = 30;      ///< ticks a map task runs
    sim::Tick fetch_delay = 40;        ///< retention until reducer fetch
    double spill_jitter = 0.15;        ///< relative stddev of spill size
};

/**
 * The simulated cluster: workers, disks, scheduler and one active job.
 */
class MrCluster
{
  public:
    MrCluster(const ClusterParams &params, std::uint64_t minspacestart_mb,
              sim::Rng rng);

    /** Submit a WordCount job; replaces any completed job. */
    void submitJob(const workload::WordCountJob &job, sim::Tick now);

    /** Advance one tick: task progress, retention, admission, OOD. */
    void step(sim::Tick now);

    /**
     * Master-side update of minspacestart; reaches the workers' admission
     * check after a one-tick propagation delay.
     */
    void setMinSpaceStart(double mb);
    double minSpaceStart() const { return minspace_effective_; }

    /** Peak disk usage across workers, this tick (the goal metric). */
    double maxDiskUsedMb() const;

    /**
     * Peak *projected* usage: current usage plus the not-yet-spilled
     * remainder of admitted tasks.  The scheduler knows each task's
     * split size, so this is observable in a real cluster — it is the
     * sensor the MR2820 controller consumes, since admitted tasks
     * cannot be un-admitted once the disk fills.
     */
    double projectedDiskUsedMb() const;

    /** Free disk on the fullest worker. */
    double minFreeMb() const;

    /** True when any worker ran out of disk. */
    bool ood() const { return ood_tick_ >= 0; }
    sim::Tick oodTick() const { return ood_tick_; }

    /** True when the submitted job finished all tasks. */
    bool jobDone() const;

    /** Submit -> all-tasks-complete, in ticks (valid when jobDone()). */
    double jobLatencyTicks() const;

    std::size_t pendingTasks() const { return pending_.size(); }
    std::size_t runningTasks() const;
    std::uint64_t completedTasks() const { return completed_tasks_; }

    /**
     * Tasks completed per logical lane (worker w maps to lane
     * w % workload::kShards): MR2820's ScenarioResult::shard_ops.
     */
    const std::array<std::uint64_t, workload::kShards> &shardOps() const
    {
        return shard_ops_;
    }

    const ClusterParams &params() const { return params_; }

  private:
    struct RunningTask
    {
        double spill_total_mb = 0.0;
        double spilled_mb = 0.0;
        sim::Tick finish_at = 0;
    };

    struct Retained
    {
        double mb = 0.0;
        sim::Tick free_at = 0;
    };

    struct Worker
    {
        /** This worker's stream for its other-data walk, jump-derived
         *  from the master stream, so no two workers share one. */
        sim::Rng rng;
        double other_mb = 0.0;
        std::vector<RunningTask> running;
        std::vector<Retained> retained;
    };

    double diskUsed(const Worker &w) const;

    ClusterParams params_;
    double minspace_pending_;   ///< master's latest value
    double minspace_effective_; ///< what workers currently enforce
    sim::Rng rng_;              ///< master stream (spill jitter)
    std::vector<Worker> workers_;
    std::array<std::uint64_t, workload::kShards> shard_ops_{};
    std::deque<double> pending_; ///< spill size per pending task
    std::uint64_t parallelism_ = 1;
    sim::Tick job_submitted_ = -1;
    sim::Tick job_finished_ = -1;
    std::uint64_t total_tasks_ = 0;
    std::uint64_t completed_tasks_ = 0;
    sim::Tick ood_tick_ = -1;
};

} // namespace smartconf::mapreduce

#endif // SMARTCONF_MAPREDUCE_CLUSTER_H_
