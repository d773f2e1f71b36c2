#ifndef SMARTCONF_EXEC_SWEEP_H_
#define SMARTCONF_EXEC_SWEEP_H_

/**
 * @file
 * Parallel experiment sweeps.
 *
 * Every figure/table harness evaluates many independent
 * (scenario, policy, seed) runs; each run owns its own tick loop and
 * RNG, so they parallelize trivially.  SweepRunner fans
 * jobs out over a ThreadPool (`--jobs`, the one parallelism knob; at
 * `--jobs 1` the pool runs every job on the calling thread through the
 * same path), memoizes results in a RunCache so no duplicate triple is
 * ever simulated twice (within or across sweeps on the same runner),
 * and returns results in submission order regardless of completion
 * order — `--jobs 8` output is byte-identical to `--jobs 1`.
 *
 * Grouping: the jobs of one (scenario, seed) — a Fig. 5 comparison of
 * policies on one workload — form a group, run as one
 * Scenario::runPolicies call that generates the workload once for
 * every policy.  Groups form in order of first appearance; custom jobs
 * and jobs without a cache key stay alone (a group fills its keys
 * through RunCache::getOrRunGroup).
 *
 * Isolation rule: a group never shares a Scenario instance with
 * another group.  The scenario-id and factory constructors build the
 * scenario *inside* the group's (or the lone job's) task, on the
 * thread that runs it; the jobs of one group share that instance, one
 * after another.
 */

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/run_cache.h"
#include "exec/thread_pool.h"
#include "scenarios/scenario.h"

namespace smartconf::exec {

/** One unit of sweep work producing a ScenarioResult. */
struct SweepJob
{
    /** A custom job's work; empty for a scenario job. */
    std::function<scenarios::ScenarioResult()> fn;

    /** Memoization key; empty string disables caching for this job. */
    std::string cache_key;

    /**
     * A scenario job (forScenario, forFactory) evaluates @c policy
     * under @c seed on a private instance of its scenario: built by
     * @c factory, or by makeScenario(scenario_key) when there is none.
     * Scenario jobs group by (scenario_key, seed).
     */
    std::string scenario_key;
    std::function<std::unique_ptr<scenarios::Scenario>()> factory;
    scenarios::Policy policy;
    std::uint64_t seed = 0;

    /**
     * Evaluate @p policy on the stock scenario @p id (as built by
     * makeScenario) under @p seed.  The scenario is constructed
     * per-job, so concurrent jobs share no simulator state.
     */
    static SweepJob forScenario(const std::string &id,
                                const scenarios::Policy &policy,
                                std::uint64_t seed);

    /**
     * Like forScenario for a non-default scenario variant: @p factory
     * is invoked inside the job to build a private instance.
     * @p scenario_key must uniquely name the variant (e.g.
     * "HB3813/fig7") — it is the scenario component of the cache key.
     */
    static SweepJob forFactory(
        const std::string &scenario_key,
        std::function<std::unique_ptr<scenarios::Scenario>()> factory,
        const scenarios::Policy &policy, std::uint64_t seed);

    /**
     * An arbitrary computation returning a ScenarioResult (e.g. the
     * Fig. 8 interacting-controller loop).  Cached under
     * @p cache_key unless it is empty; never grouped.
     */
    static SweepJob
    custom(const std::string &cache_key,
           std::function<scenarios::ScenarioResult()> fn);
};

struct SweepOptions
{
    /** Runners, the calling thread included; 0 = hardware
     *  concurrency; 1 = every job on the calling thread. */
    std::size_t jobs = 0;

    /**
     * Root of a persistent cross-process result store (see
     * DiskRunCache); empty disables it.
     */
    std::string disk_cache_dir;
};

/**
 * Fans SweepJobs out over a worker pool and collects results in
 * deterministic submission order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Effective runner count (resolved from SweepOptions::jobs). */
    std::size_t jobs() const { return jobs_; }

    /**
     * Execute all @p jobs; results arrive in the same order as the
     * input vector.  A job's exception is rethrown from here after the
     * remaining jobs finish (the lowest-index one when several throw),
     * so the cache holds the same entries at every `--jobs`.  A group
     * whose runPolicies call throws runs its jobs one by one, so only
     * the failing job's key carries the exception.  The disk cache is
     * flushed and lastWallMs() set before the rethrow, so a failed
     * sweep still publishes the jobs that finished.
     */
    std::vector<scenarios::ScenarioResult>
    run(const std::vector<SweepJob> &jobs);

    /** Execute a single job inline, through the cache unless its key
     *  is empty. */
    scenarios::ScenarioResult runOne(const SweepJob &job);

    /** Wall-clock milliseconds spent inside the last run() call. */
    double lastWallMs() const { return last_wall_ms_; }

    const RunCache &cache() const { return cache_; }
    RunCache &cache() { return cache_; }

  private:
    /** Fill results/errors at the indices of one job group. */
    void runGroup(const std::vector<SweepJob> &jobs,
                  const std::vector<std::size_t> &group,
                  std::vector<scenarios::ScenarioResult> &results,
                  std::vector<std::exception_ptr> &errors);

    std::size_t jobs_;
    RunCache cache_;
    std::unique_ptr<ThreadPool> pool_; // lazily built, reused
    double last_wall_ms_ = 0.0;
};

/** Command-line options shared by the sweep-style bench harnesses. */
struct SweepArgs
{
    SweepOptions sweep;
    bool json = false; ///< machine-readable output (--json)
};

/**
 * Read @p text as the value of the numeric command-line flag @p flag:
 * the whole string must be a decimal integer from @p lo to @p hi.
 * Anything else (empty text, a sign, blanks, trailing characters, a
 * value out of range) prints "invalid <flag> value '<text>' (want an
 * integer from <lo> to <hi>)" to stderr and exits with status 2.  The
 * one parser for every numeric flag of the bench harnesses and
 * smartconfctl.
 */
std::uint64_t parseIntFlag(const char *flag, const char *text,
                           std::uint64_t lo, std::uint64_t hi);

/**
 * parseIntFlag's twin for a real-valued argument: the whole of @p text
 * must be a finite decimal number >= 0.  Anything else (empty text,
 * blanks, trailing characters, a sign-led negative, nan, inf, a value
 * out of double range) prints "invalid <flag> value '<text>' (want a
 * finite number >= 0)" to stderr and exits with status 2.
 */
double parseDoubleFlag(const char *flag, const char *text);

/**
 * Parse `--jobs N` (also `--jobs=N`, `-j N`), `--json`,
 * `--cache-dir PATH` (also `--cache-dir=PATH`) and `--no-disk-cache`
 * from a bench harness's argv; unknown arguments are ignored.  Exits
 * with status 2 and a usage message (parseIntFlag) on a --jobs value
 * that is not an integer from 1 to 1024 (each runner past the first is
 * a helper thread).
 *
 * @p default_cache_dir seeds SweepOptions::disk_cache_dir before the
 * flags are applied: harnesses that want the persistent store by
 * default (bench_sweep) pass ".smartconf-cache"; the default empty
 * string keeps disk caching opt-in.
 */
SweepArgs parseSweepArgs(int argc, char **argv,
                         const std::string &default_cache_dir = "");

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_SWEEP_H_
