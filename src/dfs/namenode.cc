#include "dfs/namenode.h"

#include <algorithm>
#include <cmath>

namespace smartconf::dfs {

Namenode::Namenode(const NamenodeParams &params,
                   std::uint64_t summary_limit)
    : params_(params), summary_limit_(std::max<std::uint64_t>(1,
                                                              summary_limit))
{}

void
Namenode::submit(std::uint64_t writes,
                 std::optional<std::uint64_t> du_files, sim::Tick now)
{
    if (du_files && !du_) {
        // A du takes the lock on arrival; while it runs, further du
        // commands are dropped.
        DuJob job;
        job.total = *du_files;
        job.remaining = *du_files;
        job.submitted = now;
        job.holds_lock = true;
        job.acquired_at = now;
        du_ = job;
    }
    if (writes == 0)
        return;
    // Namespace mutations queue behind the global lock.
    if (!pending_writes_.empty() && pending_writes_.back().arrived == now)
        pending_writes_.back().count += writes;
    else
        pending_writes_.push_back({now, writes});
    pending_count_ += writes;
}

void
Namenode::setSummaryLimit(std::uint64_t files)
{
    summary_limit_ = std::max<std::uint64_t>(1, files);
}

double
Namenode::takeRecentMaxWait()
{
    const double out = recent_max_wait_;
    recent_max_wait_ = 0.0;
    return out;
}

void
Namenode::step(sim::Tick now)
{
    if (du_ && du_->holds_lock) {
        // du traversal under the global lock; client writes are blocked.
        DuJob &job = *du_;
        const double chunk_budget =
            static_cast<double>(summary_limit_) - job.chunk_done;
        const double walk = std::min(
            {params_.traversal_files_per_tick, chunk_budget,
             static_cast<double>(job.remaining)});
        job.chunk_done += walk;
        job.remaining -= static_cast<std::uint64_t>(walk);

        const bool chunk_full =
            job.chunk_done >= static_cast<double>(summary_limit_);
        if (job.remaining == 0 || chunk_full) {
            last_hold_ticks_ =
                static_cast<double>(now - job.acquired_at) + 1.0;
            ++chunks_completed_;
            job.holds_lock = false;
            job.chunk_done = 0.0;
            if (job.remaining == 0) {
                DuResult result;
                result.files = job.total;
                result.latency_ticks =
                    static_cast<double>(now - job.submitted) + 1.0;
                result.yields = job.yields;
                du_results_.push_back(result);
                du_.reset();
            } else {
                ++job.yields;
                job.yield_remaining = params_.yield_overhead_ticks;
            }
        }
        return;
    }

    // Lock is free: serve blocked client writes, whole same-tick
    // batches at a time (every write in a batch has the same wait).
    auto budget = static_cast<std::uint64_t>(
        std::max(0.0, std::round(params_.write_service_per_tick)));
    while (budget > 0 && !pending_writes_.empty()) {
        PendingBatch &batch = pending_writes_.front();
        const std::uint64_t served = std::min(budget, batch.count);
        const double wait = static_cast<double>(now - batch.arrived);
        recent_max_wait_ = std::max(recent_max_wait_, wait);
        served_writes_ += served;
        pending_count_ -= served;
        budget -= served;
        batch.count -= served;
        if (batch.count == 0)
            pending_writes_.pop_front();
    }

    // A yielded du reacquires once the release overhead has elapsed and
    // the write backlog has drained.
    if (du_ && !du_->holds_lock) {
        du_->yield_remaining -= 1.0;
        if (du_->yield_remaining <= 0.0 && pending_writes_.empty()) {
            du_->holds_lock = true;
            du_->acquired_at = now + 1; // holds from the next tick on
        }
    }
}

} // namespace smartconf::dfs
