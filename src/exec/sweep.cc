#include "exec/sweep.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace smartconf::exec {

SweepJob
SweepJob::forScenario(const std::string &id,
                      const scenarios::Policy &policy,
                      std::uint64_t seed)
{
    SweepJob job;
    job.cache_key = RunCache::key(id, policy, seed);
    job.fn = [id, policy, seed] {
        std::unique_ptr<scenarios::Scenario> s =
            scenarios::makeScenario(id);
        if (!s)
            throw std::invalid_argument("unknown scenario id: " + id);
        return s->run(policy, seed);
    };
    return job;
}

SweepJob
SweepJob::forFactory(
    const std::string &scenario_key,
    std::function<std::unique_ptr<scenarios::Scenario>()> factory,
    const scenarios::Policy &policy, std::uint64_t seed)
{
    SweepJob job;
    job.cache_key = RunCache::key(scenario_key, policy, seed);
    job.fn = [factory = std::move(factory), policy, seed] {
        std::unique_ptr<scenarios::Scenario> s = factory();
        if (!s)
            throw std::invalid_argument(
                "scenario factory returned nullptr");
        return s->run(policy, seed);
    };
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
                           : opts.jobs),
      use_cache_(opts.cache)
{
    if (use_cache_ && !opts.disk_cache_dir.empty())
        cache_.attachDiskCache(opts.disk_cache_dir);
}

scenarios::ScenarioResult
SweepRunner::execute(const SweepJob &job)
{
    if (use_cache_ && !job.cache_key.empty())
        return cache_.getOrRun(job.cache_key, job.fn);
    return job.fn();
}

scenarios::ScenarioResult
SweepRunner::runOne(const SweepJob &job)
{
    return execute(job);
}

std::vector<scenarios::ScenarioResult>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    const auto start = std::chrono::steady_clock::now();
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(jobs_);
    // One path at every --jobs (a pool of 1 runs the indices in order
    // on this thread): every result is written at its own index, and
    // on a job exception parallelFor still runs every index before
    // rethrowing the lowest-index error.
    std::vector<scenarios::ScenarioResult> results(jobs.size());
    pool_->parallelFor(jobs.size(), [&](std::size_t i) {
        results[i] = execute(jobs[i]);
    });

    // Publish buffered disk-cache entries before the clock stops: the
    // next process's warm start depends on the segments being sealed,
    // so the seal cost belongs to this sweep's wall time.
    cache_.flushDisk();

    last_wall_ms_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
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
