#ifndef SMARTCONF_EXEC_RUN_CACHE_H_
#define SMARTCONF_EXEC_RUN_CACHE_H_

/**
 * @file
 * Memoization of scenario evaluation runs.
 *
 * The figure harnesses re-run identical (scenario, policy, seed)
 * triples — Fig. 5's exhaustive feasibility search alone replays its
 * winning candidate for the display row, and every harness shares
 * search seeds.  Simulations are pure functions of that triple, so the
 * cache returns the stored ScenarioResult instead of re-simulating.
 * getOrRunGroup fills several keys from one computation: a sweep group
 * (one scenario and seed, several policies) simulates its missing
 * policies in one Scenario::runPolicies call.
 *
 * Concurrency: the cache stores a shared_future per key and registers
 * it *before* running the job, so when two pool workers race on the
 * same key exactly one simulates and the other blocks on the future —
 * duplicate work is eliminated, not merely deduplicated after the
 * fact.  Hit/miss counters are exposed so tests and benches can verify
 * that no duplicate simulation ever executed.
 */

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenarios/scenario.h"

namespace smartconf::exec {

class DiskRunCache;

/**
 * Thread-safe memo table for ScenarioResult, keyed by an opaque string
 * (see key()).
 */
class RunCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;   ///< served from the table (or joined
                                  ///< an in-flight computation)
        std::uint64_t misses = 0; ///< not in the table (loaded from
                                  ///< disk or actually simulated)
        std::uint64_t disk_hits = 0;   ///< misses served by disk load
        std::uint64_t disk_stores = 0; ///< fresh results spilled to disk
    };

    using RunFn = std::function<scenarios::ScenarioResult()>;

    /** Computes the results of some of a group's keys, given as
     *  indices into the group's key list, in that order. */
    using GroupFn = std::function<std::vector<scenarios::ScenarioResult>(
        const std::vector<std::size_t> &)>;

    /** Computes the result of one of a group's keys, alone. */
    using MemberFn = std::function<scenarios::ScenarioResult(std::size_t)>;

    /**
     * Return the cached result for @p key, running @p fn to produce it
     * on first use.  Concurrent callers with the same key block until
     * the single in-flight run finishes.  An exception thrown by @p fn
     * is stored and rethrown to every caller of that key.  The
     * one-key case of getOrRunGroup.
     */
    scenarios::ScenarioResult getOrRun(const std::string &key,
                                       const RunFn &fn);

    /**
     * getOrRun for a group of keys that one call can fill.  Each key is
     * counted as getOrRun counts it, in order: a hit when the table
     * already holds it (an earlier duplicate in @p keys included),
     * else a miss this call owns.  The owned keys are tried on disk
     * one by one; those left are computed by one @p run_group call,
     * and each fresh result is spilled to disk.  If run_group throws
     * for one key, that key stores the exception; for several, each
     * runs alone through @p run_one (unused otherwise), so only a key
     * whose own run throws stores an exception.  Returns one
     * future per key.  Every owned key is settled before the return;
     * a hit's future may still be in flight on another thread.
     */
    std::vector<std::shared_future<scenarios::ScenarioResult>>
    getOrRunGroup(const std::vector<std::string> &keys,
                  const GroupFn &run_group, const MemberFn &run_one);

    /** True when @p key already has a (possibly in-flight) entry. */
    bool contains(const std::string &key) const;

    /**
     * Attach a persistent second level rooted at @p dir (see
     * DiskRunCache).  From then on a miss first tries a disk load, and
     * every freshly simulated result is spilled to disk — so the next
     * *process* starts warm.  Pass an empty dir to detach.
     */
    void attachDiskCache(const std::string &dir);

    /** The attached disk store, or nullptr. */
    const DiskRunCache *diskCache() const { return disk_.get(); }
    DiskRunCache *diskCache() { return disk_.get(); }

    /**
     * Publish the disk store's buffered entries now (the segment store
     * batches writes).  Harnesses call this at end-of-sweep so a
     * following process starts warm; detached = no-op.
     */
    void flushDisk();

    Stats stats() const;
    std::size_t size() const;
    void clear();

    /**
     * Canonical cache key for an evaluation run.  @p scenario_key is
     * the scenario id, plus any variant suffix when the harness
     * constructs the scenario with non-default options (e.g.
     * "HB3813/fig7").  The policy contributes Policy::cacheKey(), which
     * distinguishes kind, value, pole_override and label.
     */
    static std::string key(const std::string &scenario_key,
                           const scenarios::Policy &policy,
                           std::uint64_t seed);

  private:
    /** Spill a fresh @p result under @p key to @p disk (if any), then
     *  hand it to the key's waiters. */
    void settle(DiskRunCache *disk, const std::string &key,
                std::promise<scenarios::ScenarioResult> &promise,
                scenarios::ScenarioResult result);

    mutable std::mutex mutex_;
    std::unordered_map<std::string,
                       std::shared_future<scenarios::ScenarioResult>>
        entries_;
    Stats stats_;
    std::shared_ptr<DiskRunCache> disk_; ///< optional second level
};

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_RUN_CACHE_H_
