#include "exec/sweep.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

namespace smartconf::exec {

namespace {

/** A scenario job's private scenario instance. */
std::unique_ptr<scenarios::Scenario>
buildScenario(const SweepJob &job)
{
    if (job.factory) {
        std::unique_ptr<scenarios::Scenario> s = job.factory();
        if (!s)
            throw std::invalid_argument("scenario factory returned nullptr");
        return s;
    }
    std::unique_ptr<scenarios::Scenario> s =
        scenarios::makeScenario(job.scenario_key);
    if (!s)
        throw std::invalid_argument("unknown scenario id: " +
                                    job.scenario_key);
    return s;
}

/** Run @p job alone, without the cache. */
scenarios::ScenarioResult
runJob(const SweepJob &job)
{
    if (job.fn)
        return job.fn();
    return buildScenario(job)->run(job.policy, job.seed);
}

/**
 * The job groups of @p jobs, each a list of job indices: the cached
 * scenario jobs of one (scenario_key, seed) form one group, in order of
 * first appearance; every other job is a group of its own.
 */
std::vector<std::vector<std::size_t>>
groupJobs(const std::vector<SweepJob> &jobs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::pair<std::string, std::uint64_t>, std::size_t> index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        if (job.fn || job.cache_key.empty()) {
            groups.push_back({i});
            continue;
        }
        const auto [it, fresh] = index.try_emplace(
            {job.scenario_key, job.seed}, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

} // namespace

SweepJob
SweepJob::forScenario(const std::string &id,
                      const scenarios::Policy &policy,
                      std::uint64_t seed)
{
    SweepJob job;
    job.cache_key = RunCache::key(id, policy, seed);
    job.scenario_key = id;
    job.policy = policy;
    job.seed = seed;
    return job;
}

SweepJob
SweepJob::forFactory(
    const std::string &scenario_key,
    std::function<std::unique_ptr<scenarios::Scenario>()> factory,
    const scenarios::Policy &policy, std::uint64_t seed)
{
    SweepJob job = forScenario(scenario_key, policy, seed);
    job.factory = std::move(factory);
    return job;
}

SweepJob
SweepJob::custom(const std::string &cache_key,
                 std::function<scenarios::ScenarioResult()> fn)
{
    SweepJob job;
    job.cache_key = cache_key;
    job.fn = std::move(fn);
    return job;
}

SweepRunner::SweepRunner(SweepOptions opts)
    : jobs_(opts.jobs == 0 ? ThreadPool::defaultConcurrency()
                           : opts.jobs)
{
    if (!opts.disk_cache_dir.empty())
        cache_.attachDiskCache(opts.disk_cache_dir);
}

scenarios::ScenarioResult
SweepRunner::runOne(const SweepJob &job)
{
    if (!job.cache_key.empty())
        return cache_.getOrRun(job.cache_key, [&job] { return runJob(job); });
    return runJob(job);
}

void
SweepRunner::runGroup(const std::vector<SweepJob> &jobs,
                      const std::vector<std::size_t> &group,
                      std::vector<scenarios::ScenarioResult> &results,
                      std::vector<std::exception_ptr> &errors)
{
    const SweepJob &lead = jobs[group.front()];
    if (lead.fn || lead.cache_key.empty()) {
        try {
            results[group.front()] = runOne(lead);
        } catch (...) {
            errors[group.front()] = std::current_exception();
        }
        return;
    }
    std::vector<std::string> keys;
    keys.reserve(group.size());
    for (const std::size_t i : group)
        keys.push_back(jobs[i].cache_key);
    const auto futures = cache_.getOrRunGroup(
        keys,
        [&](const std::vector<std::size_t> &members) {
            std::vector<scenarios::Policy> policies;
            policies.reserve(members.size());
            for (const std::size_t m : members)
                policies.push_back(jobs[group[m]].policy);
            return buildScenario(lead)->runPolicies(policies, lead.seed);
        },
        [&](std::size_t m) { return runJob(jobs[group[m]]); });
    for (std::size_t m = 0; m < group.size(); ++m) {
        try {
            results[group[m]] = futures[m].get();
        } catch (...) {
            errors[group[m]] = std::current_exception();
        }
    }
}

std::vector<scenarios::ScenarioResult>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    const auto start = std::chrono::steady_clock::now();
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(jobs_);
    // One path at every --jobs (a pool of 1 runs the indices in order
    // on this thread): every result is written at its own index.
    std::vector<scenarios::ScenarioResult> results(jobs.size());
    std::exception_ptr error;
    try {
        const std::vector<std::vector<std::size_t>> groups = groupJobs(jobs);
        std::vector<std::exception_ptr> errors(jobs.size());
        pool_->parallelFor(groups.size(), [&](std::size_t g) {
            runGroup(jobs, groups[g], results, errors);
        });
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    } catch (...) {
        error = std::current_exception();
    }

    // Publish buffered disk-cache entries before the clock stops, a
    // failed sweep's finished jobs included: the next process's warm
    // start depends on the segments being sealed, so the seal cost
    // belongs to this sweep's wall time.
    cache_.flushDisk();

    last_wall_ms_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (error)
        std::rethrow_exception(error);
    return results;
}

std::uint64_t
parseIntFlag(const char *flag, const char *text, std::uint64_t lo,
             std::uint64_t hi)
{
    // strtoull skips leading blanks and negates a leading '-', so the
    // text must start with a digit; ERANGE flags a value past 2^64 - 1.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        std::fprintf(stderr,
                     "invalid %s value '%s' (want an integer from "
                     "%" PRIu64 " to %" PRIu64 ")\n",
                     flag, text, lo, hi);
        std::exit(2);
    }
    return v;
}

double
parseDoubleFlag(const char *flag, const char *text)
{
    // strtod also skips leading blanks and reads signs, "nan", "inf"
    // and hex floats, so the text must start with a digit or a point
    // and hold no 'x'; what is left is a decimal >= 0, and ERANGE flags
    // one outside the range of a double.
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    const bool lead = std::isdigit(static_cast<unsigned char>(text[0])) ||
                      text[0] == '.';
    if (!lead || std::strpbrk(text, "xX") || end == text || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "invalid %s value '%s' (want a finite number >= 0)\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

SweepArgs
parseSweepArgs(int argc, char **argv,
               const std::string &default_cache_dir)
{
    constexpr std::uint64_t kMaxJobs = 1024;
    SweepArgs args;
    args.sweep.disk_cache_dir = default_cache_dir;
    auto parseJobs = [&](const char *text) {
        args.sweep.jobs = static_cast<std::size_t>(
            parseIntFlag("--jobs", text, 1, kMaxJobs));
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--json") == 0) {
            args.json = true;
        } else if (std::strcmp(a, "--jobs") == 0 ||
                   std::strcmp(a, "-j") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a);
                std::exit(2);
            }
            parseJobs(argv[++i]);
        } else if (std::strncmp(a, "--jobs=", 7) == 0) {
            parseJobs(a + 7);
        } else if (std::strcmp(a, "--cache-dir") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a);
                std::exit(2);
            }
            args.sweep.disk_cache_dir = argv[++i];
        } else if (std::strncmp(a, "--cache-dir=", 12) == 0) {
            args.sweep.disk_cache_dir = a + 12;
        } else if (std::strcmp(a, "--no-disk-cache") == 0) {
            args.sweep.disk_cache_dir.clear();
        }
    }
    return args;
}

} // namespace smartconf::exec
