#include "mapreduce/cluster.h"

#include <algorithm>
#include <cmath>

namespace smartconf::mapreduce {

MrCluster::MrCluster(const ClusterParams &params,
                     std::uint64_t minspacestart_mb, sim::Rng rng)
    : params_(params),
      minspace_pending_(static_cast<double>(minspacestart_mb)),
      minspace_effective_(static_cast<double>(minspacestart_mb)),
      rng_(rng), workers_(params.workers)
{
    // Each worker owns a jump-derived substream (2^128 apart) for its
    // other-data walk; the master keeps the base stream for job-level
    // draws.  Worker streams never interleave, so the per-worker loops
    // are independent of iteration order.
    sim::Rng walker = rng_;
    for (auto &w : workers_) {
        walker.jump();
        w.rng = walker;
        w.other_mb = params_.other_base_mb;
    }
}

void
MrCluster::submitJob(const workload::WordCountJob &job, sim::Tick now)
{
    pending_.clear();
    const std::uint64_t tasks = job.mapTaskCount();
    for (std::uint64_t i = 0; i < tasks; ++i) {
        const double jitter =
            std::max(0.3, rng_.gaussian(1.0, params_.spill_jitter));
        pending_.push_back(job.spillPerTaskMb() * jitter);
    }
    parallelism_ = std::max<std::uint64_t>(1, job.parallelism);
    total_tasks_ = tasks;
    completed_tasks_ = 0;
    job_submitted_ = now;
    job_finished_ = -1;
}

void
MrCluster::setMinSpaceStart(double mb)
{
    minspace_pending_ = std::max(0.0, mb);
}

double
MrCluster::diskUsed(const Worker &w) const
{
    double used = w.other_mb;
    for (const auto &t : w.running)
        used += t.spilled_mb;
    for (const auto &r : w.retained)
        used += r.mb;
    return used;
}

double
MrCluster::maxDiskUsedMb() const
{
    double peak = 0.0;
    for (const auto &w : workers_)
        peak = std::max(peak, diskUsed(w));
    return peak;
}

double
MrCluster::projectedDiskUsedMb() const
{
    double peak = 0.0;
    for (const auto &w : workers_) {
        double projected = diskUsed(w);
        for (const auto &t : w.running)
            projected += t.spill_total_mb - t.spilled_mb;
        peak = std::max(peak, projected);
    }
    return peak;
}

double
MrCluster::minFreeMb() const
{
    return params_.disk_capacity_mb - maxDiskUsedMb();
}

std::size_t
MrCluster::runningTasks() const
{
    std::size_t n = 0;
    for (const auto &w : workers_)
        n += w.running.size();
    return n;
}

bool
MrCluster::jobDone() const
{
    return total_tasks_ > 0 && completed_tasks_ == total_tasks_;
}

double
MrCluster::jobLatencyTicks() const
{
    if (!jobDone() || job_finished_ < 0)
        return -1.0;
    return static_cast<double>(job_finished_ - job_submitted_);
}

void
MrCluster::step(sim::Tick now)
{
    if (ood())
        return; // a worker's disk is full: the job is dead

    // Master -> slave propagation: last tick's pending value becomes
    // effective before this tick's admission decisions.
    minspace_effective_ = minspace_pending_;

    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        Worker &w = workers_[wi];
        // Other-data random walk (DFS blocks, logs, shuffle of other
        // jobs), drawn from the worker's own stream.
        w.other_mb += w.rng.uniform(-params_.other_walk_mb,
                                    params_.other_walk_mb);
        w.other_mb = std::clamp(w.other_mb, params_.other_base_mb * 0.6,
                                params_.other_max_mb);

        // Task progress: spill linearly over the task duration.
        for (auto &t : w.running) {
            const double per_tick =
                t.spill_total_mb /
                static_cast<double>(params_.task_duration);
            t.spilled_mb =
                std::min(t.spill_total_mb, t.spilled_mb + per_tick);
        }

        // Completions: move full spills into the retention set.
        for (auto it = w.running.begin(); it != w.running.end();) {
            if (now >= it->finish_at) {
                w.retained.push_back(
                    {it->spill_total_mb, now + params_.fetch_delay});
                ++completed_tasks_;
                ++shard_ops_[wi % workload::kShards];
                it = w.running.erase(it);
            } else {
                ++it;
            }
        }

        // Reducer fetches free retained output.
        for (auto it = w.retained.begin(); it != w.retained.end();) {
            if (now >= it->free_at) {
                it = w.retained.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Admission: a worker takes a new task only when its free disk is
    // at least minspacestart (the MR2820 gate).  At most one task per
    // worker per tick — MapReduce assigns work one task per tracker
    // heartbeat.
    for (auto &w : workers_) {
        if (pending_.empty() || w.running.size() >= parallelism_)
            continue;
        const double free = params_.disk_capacity_mb - diskUsed(w);
        if (free < minspace_effective_)
            continue;
        RunningTask task;
        task.spill_total_mb = pending_.front();
        task.finish_at = now + params_.task_duration;
        pending_.pop_front();
        w.running.push_back(task);
    }

    // OOD latch: any worker above capacity kills the job.
    if (ood_tick_ < 0 && maxDiskUsedMb() > params_.disk_capacity_mb)
        ood_tick_ = now;

    if (jobDone() && job_finished_ < 0)
        job_finished_ = now;
}

} // namespace smartconf::mapreduce
