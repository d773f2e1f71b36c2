#ifndef SMARTCONF_DFS_NAMENODE_H_
#define SMARTCONF_DFS_NAMENODE_H_

/**
 * @file
 * Namenode with a global namespace lock and chunked du (HD4995).
 *
 * getContentSummary traverses the requested subtree while holding the
 * namenode's global lock.  HD4995's fix introduced
 * `content-summary.limit`: after traversing that many files the du
 * releases the lock (yield), letting blocked client writes drain, then
 * reacquires and continues.
 *
 *  - large limit: du finishes fast but each lock hold blocks writes for
 *    limit / traversal_rate ticks ("Too big, write blocked for long");
 *  - small limit: writes barely notice, but every yield pays a release/
 *    reacquire overhead and the du waits for the write backlog, so du
 *    latency grows ("Too small, du latency hurts").
 *
 * The configuration is an *indirect* PerfConf: the controlled deputy is
 * the per-chunk lock-hold time; the transducer multiplies by the
 * traversal rate to get the file-count limit.
 *
 * The namespace itself is not modelled.  A du carries the size of the
 * subtree it summarises, and a write is only a unit of lock demand, so
 * a tick's arrivals are a write count and an optional du: the namenode
 * tracks the lock, the blocked writes and the running du, which is all
 * the HD4995 controller sees.
 */

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/clock.h"

namespace smartconf::dfs {

/** Namenode mechanics. */
struct NamenodeParams
{
    double traversal_files_per_tick = 20000.0; ///< du walk speed
    double yield_overhead_ticks = 1.0; ///< lock release/reacquire cost
    double write_service_per_tick = 60.0; ///< writes served when unlocked
};

/** Outcome of one completed du command. */
struct DuResult
{
    std::uint64_t files = 0;   ///< files summarized
    double latency_ticks = 0;  ///< submit -> completion
    std::uint64_t yields = 0;  ///< lock releases taken
};

/**
 * The simulated namenode.
 */
class Namenode
{
  public:
    Namenode(const NamenodeParams &params, std::uint64_t summary_limit);

    /**
     * Submit the arrivals at @p now: @p writes client writes join the
     * blocked-write queue as one batch, and a du over @p du_files files
     * starts at once, unless another du is still running (one admin du
     * at a time: the extra command is dropped).
     */
    void submit(std::uint64_t writes,
                std::optional<std::uint64_t> du_files, sim::Tick now);

    /** Advance one tick: du traversal or write service. */
    void step(sim::Tick now);

    /** Adjust `content-summary.limit` (SmartConf-controlled). */
    void setSummaryLimit(std::uint64_t files);
    std::uint64_t summaryLimit() const { return summary_limit_; }

    /**
     * Worst write wait observed since the previous call; resets the
     * tracker.  This is the per-chunk sensor the HD4995 controller
     * consumes (the configuration is *conditional*: it only matters
     * while a du is running).
     */
    double takeRecentMaxWait();

    /** Number of completed lock-hold chunks (control invocation cue). */
    std::uint64_t chunksCompleted() const { return chunks_completed_; }

    /** Lock-hold duration of each completed du chunk (the deputy). */
    double lastHoldTicks() const { return last_hold_ticks_; }

    /** Completed du commands. */
    const std::vector<DuResult> &duResults() const { return du_results_; }

    /** True while a du is in progress. */
    bool duActive() const { return du_.has_value(); }

    /** Pending (blocked) client writes. */
    std::size_t pendingWrites() const
    {
        return static_cast<std::size_t>(pending_count_);
    }

    /** Total client writes served. */
    std::uint64_t servedWrites() const { return served_writes_; }

  private:
    struct DuJob
    {
        std::uint64_t remaining = 0;  ///< files left to traverse
        std::uint64_t total = 0;
        sim::Tick submitted = 0;
        std::uint64_t yields = 0;
        bool holds_lock = false;
        sim::Tick acquired_at = 0;    ///< when the lock was last taken
        double chunk_done = 0.0;      ///< files traversed this hold
        double yield_remaining = 0.0; ///< release/reacquire cost left
    };

    NamenodeParams params_;
    std::uint64_t summary_limit_;

    /**
     * Blocked client writes, run-length encoded by arrival tick.  All
     * writes submitted in one tick share an arrival time, so a du that
     * blocks a few thousand writes costs a handful of batch entries
     * instead of one deque node per write — and the drain loop serves
     * whole batches per budget slice.
     */
    struct PendingBatch
    {
        sim::Tick arrived = 0;
        std::uint64_t count = 0;
    };
    std::deque<PendingBatch> pending_writes_;
    std::uint64_t pending_count_ = 0; ///< total writes across batches
    std::optional<DuJob> du_;
    std::vector<DuResult> du_results_;
    double last_hold_ticks_ = 0.0;
    double recent_max_wait_ = 0.0;
    std::uint64_t chunks_completed_ = 0;
    std::uint64_t served_writes_ = 0;
};

} // namespace smartconf::dfs

#endif // SMARTCONF_DFS_NAMENODE_H_
