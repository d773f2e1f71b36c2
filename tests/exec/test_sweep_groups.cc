/**
 * @file
 * SweepRunner's job groups: the jobs of one (scenario, seed) run as one
 * Scenario::runPolicies call, and the runner must behave exactly as if
 * every job ran alone — the same results, the same RunCache counters
 * (hits, misses, disk hits, disk stores), the same exception — at
 * every --jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/disk_cache.h"
#include "exec/sweep.h"
#include "scenarios/scenario.h"
#include "support/scratch_dir.h"

namespace smartconf::exec {
namespace {

namespace fs = std::filesystem;
using scenarios::Policy;
using smartconf::ProfileSummary;
using scenarios::Scenario;
using scenarios::ScenarioInfo;
using scenarios::ScenarioResult;

/** The static value whose run throws (on every seed but 1). */
constexpr double kThrow = 13.0;

/** What the probe scenarios of one test were asked to do. */
struct ProbeLog
{
    std::mutex mu;
    int runs = 0;
    /** One entry per runPolicies call: the seed, then the values. */
    std::vector<std::vector<double>> groups;
};

/**
 * A scenario that simulates nothing: its result carries the policy's
 * value (tradeoff) and the seed (ops_simulated), and it logs how it was
 * called.  runPolicies is the base-class loop over run().
 */
class ProbeScenario : public Scenario
{
  public:
    explicit ProbeScenario(std::shared_ptr<ProbeLog> log)
        : Scenario(ScenarioInfo{}), log_(std::move(log))
    {}

    ProfileSummary profile(std::uint64_t) const override { return {}; }

    ScenarioResult run(const Policy &policy,
                       std::uint64_t seed) const override
    {
        {
            std::lock_guard<std::mutex> lock(log_->mu);
            ++log_->runs;
        }
        if (policy.value == kThrow && seed != 1)
            throw std::runtime_error("probe failed s=" +
                                     std::to_string(seed));
        ScenarioResult r;
        r.scenario_id = "probe";
        r.policy_label = policy.label;
        r.tradeoff = policy.value;
        r.ops_simulated = seed;
        return r;
    }

    std::vector<ScenarioResult>
    runPolicies(std::span<const Policy> policies,
                std::uint64_t seed) const override
    {
        {
            std::lock_guard<std::mutex> lock(log_->mu);
            std::vector<double> call = {static_cast<double>(seed)};
            for (const Policy &p : policies)
                call.push_back(p.value);
            log_->groups.push_back(std::move(call));
        }
        return Scenario::runPolicies(policies, seed);
    }

  private:
    std::shared_ptr<ProbeLog> log_;
};

SweepJob
probeJob(const std::shared_ptr<ProbeLog> &log, double value,
         std::uint64_t seed)
{
    return SweepJob::forFactory(
        "probe",
        [log] { return std::make_unique<ProbeScenario>(log); },
        Policy::makeStatic(value), seed);
}

/** A fresh directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(test_support::scratchDir("sweep-groups-" + tag))
    {
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
expectSameStats(const RunCache::Stats &a, const RunCache::Stats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.disk_hits, b.disk_hits);
    EXPECT_EQ(a.disk_stores, b.disk_stores);
}

/**
 * The reference: every job alone, in order, through runOne (getOrRun
 * on a runner of one), then a disk flush.  Exceptions are dropped.
 */
std::vector<ScenarioResult>
runAlone(SweepRunner &runner, const std::vector<SweepJob> &jobs)
{
    std::vector<ScenarioResult> out(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        try {
            out[i] = runner.runOne(jobs[i]);
        } catch (const std::exception &) {
        }
    }
    runner.cache().flushDisk();
    return out;
}

void
expectSameResults(const std::vector<ScenarioResult> &a,
                  const std::vector<ScenarioResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(DiskRunCache::serializeResult(a[i]),
                  DiskRunCache::serializeResult(b[i]))
            << "job #" << i;
}

TEST(SweepGroups, GroupedMatchesJobByJobAtJobs1And4)
{
    // 3 scenarios x 2 seeds = 6 groups, at least one per runner, so
    // both runners group.  The last job repeats the first, and HD4995's
    // patch and buggy defaults are one policy.
    std::vector<SweepJob> jobs;
    for (const char *id : {"HB3813", "CA6059", "HD4995"}) {
        const auto s = scenarios::makeScenario(id);
        for (const Policy &p :
             {Policy::smart(), Policy::makeStatic(s->info().patch_default),
              Policy::makeStatic(s->info().buggy_default)})
            for (const std::uint64_t seed : {1u, 2u})
                jobs.push_back(SweepJob::forScenario(id, p, seed));
    }
    jobs.push_back(jobs.front());
    std::set<std::string> keys;
    for (const SweepJob &job : jobs)
        keys.insert(job.cache_key);
    ASSERT_LT(keys.size(), jobs.size());

    TempDir ref_dir("ref");
    SweepRunner ref(SweepOptions{1, ref_dir.path()});
    const std::vector<ScenarioResult> want = runAlone(ref, jobs);
    EXPECT_EQ(ref.cache().stats().misses, keys.size());
    EXPECT_EQ(ref.cache().stats().disk_stores, keys.size());

    for (const std::size_t njobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs=" + std::to_string(njobs));
        TempDir dir("j" + std::to_string(njobs));
        SweepRunner runner(SweepOptions{njobs, dir.path()});
        expectSameResults(runner.run(jobs), want);
        expectSameStats(runner.cache().stats(), ref.cache().stats());

        // A second process replays everything from disk.
        SweepRunner warm(SweepOptions{njobs, dir.path()});
        expectSameResults(warm.run(jobs), want);
        EXPECT_EQ(warm.cache().stats().disk_hits, keys.size());
        EXPECT_EQ(warm.cache().stats().disk_stores, 0u);
    }
}

TEST(SweepGroups, DiskHitsLeaveOnlyTheRestToSimulate)
{
    const auto jobsFor = [](const std::shared_ptr<ProbeLog> &log) {
        std::vector<SweepJob> jobs;
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u})
            for (const double v : {1.0, 2.0, 3.0})
                jobs.push_back(probeJob(log, v, seed));
        return jobs;
    };
    // An earlier process left the value-2 runs on disk.
    const auto prefill = [](const std::string &dir) {
        std::vector<SweepJob> jobs;
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u})
            jobs.push_back(
                probeJob(std::make_shared<ProbeLog>(), 2.0, seed));
        SweepRunner(SweepOptions{1, dir}).run(jobs);
    };

    for (const std::size_t njobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs=" + std::to_string(njobs));
        const std::string tag = std::to_string(njobs);
        TempDir dir("part-" + tag), ref_dir("part-ref-" + tag);
        prefill(dir.path());
        prefill(ref_dir.path());

        SweepRunner ref(SweepOptions{1, ref_dir.path()});
        const std::vector<ScenarioResult> want =
            runAlone(ref, jobsFor(std::make_shared<ProbeLog>()));

        const auto log = std::make_shared<ProbeLog>();
        SweepRunner runner(SweepOptions{njobs, dir.path()});
        expectSameResults(runner.run(jobsFor(log)), want);
        expectSameStats(runner.cache().stats(), ref.cache().stats());
        EXPECT_EQ(runner.cache().stats().disk_hits, 4u);
        EXPECT_EQ(runner.cache().stats().disk_stores, 8u);
        // Each seed's group simulated values 1 and 3, in one call.
        ASSERT_EQ(log->groups.size(), 4u);
        std::sort(log->groups.begin(), log->groups.end());
        for (std::size_t s = 0; s < 4; ++s)
            EXPECT_EQ(log->groups[s],
                      (std::vector<double>{double(s + 1), 1.0, 3.0}));
        EXPECT_EQ(log->runs, 8);
    }
}

TEST(SweepGroups, ThrowingPolicyFailsOnlyItsOwnKey)
{
    // Policy-major order: the value-13 jobs of seeds 2, 3 and 4 (job
    // indices 5, 6 and 7) throw; index 5's error is the one rethrown.
    const auto log = std::make_shared<ProbeLog>();
    std::vector<SweepJob> jobs;
    for (const double v : {1.0, kThrow, 2.0})
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u})
            jobs.push_back(probeJob(log, v, seed));

    SweepRunner ref(SweepOptions{1, {}});
    runAlone(ref, jobs);

    for (const std::size_t njobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs=" + std::to_string(njobs));
        SweepRunner runner(SweepOptions{njobs, {}});
        try {
            runner.run(jobs);
            ADD_FAILURE() << "the sweep did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "probe failed s=2");
        }
        expectSameStats(runner.cache().stats(), ref.cache().stats());
        EXPECT_EQ(runner.cache().size(), jobs.size());
        for (const SweepJob &job : jobs) {
            SCOPED_TRACE(job.cache_key);
            if (job.policy.value == kThrow && job.seed != 1) {
                EXPECT_THROW(runner.runOne(job), std::runtime_error);
            } else {
                const ScenarioResult r = runner.runOne(job);
                EXPECT_EQ(r.tradeoff, job.policy.value);
                EXPECT_EQ(r.ops_simulated, job.seed);
            }
        }
    }
}

TEST(SweepGroups, FactoryJobsGroupInOrderOfFirstAppearance)
{
    const auto log = std::make_shared<ProbeLog>();
    const std::vector<SweepJob> jobs = {
        probeJob(log, 1.0, 2), probeJob(log, 1.0, 1), probeJob(log, 2.0, 2),
        probeJob(log, 2.0, 1), probeJob(log, 1.0, 2), // a duplicate
    };
    SweepRunner runner(SweepOptions{1, {}});
    const std::vector<ScenarioResult> out = runner.run(jobs);
    ASSERT_EQ(out.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(out[i].tradeoff, jobs[i].policy.value) << i;
        EXPECT_EQ(out[i].ops_simulated, jobs[i].seed) << i;
    }
    // Seed 2 appeared first; its duplicate joined the first copy.
    ASSERT_EQ(log->groups.size(), 2u);
    EXPECT_EQ(log->groups[0], (std::vector<double>{2.0, 1.0, 2.0}));
    EXPECT_EQ(log->groups[1], (std::vector<double>{1.0, 1.0, 2.0}));
    EXPECT_EQ(runner.cache().stats().misses, 4u);
    EXPECT_EQ(runner.cache().stats().hits, 1u);
}

TEST(SweepGroups, CustomJobsAreNeverGrouped)
{
    const auto log = std::make_shared<ProbeLog>();
    std::vector<int> calls(3, 0);
    std::vector<SweepJob> jobs;
    for (int c = 0; c < 3; ++c) {
        // Two keyed custom jobs and one uncached, each next to a probe
        // job under the same seed.
        jobs.push_back(SweepJob::custom(
            c < 2 ? "custom-" + std::to_string(c) : "", [&calls, c] {
                ++calls[static_cast<std::size_t>(c)];
                ScenarioResult r;
                r.tradeoff = 100.0 + c;
                return r;
            }));
        jobs.push_back(probeJob(log, 1.0, 1));
        jobs.push_back(probeJob(log, 2.0, 1));
    }
    SweepRunner runner(SweepOptions{1, {}});
    const std::vector<ScenarioResult> out = runner.run(jobs);
    EXPECT_EQ(calls, (std::vector<int>{1, 1, 1}));
    for (int c = 0; c < 3; ++c) {
        const std::size_t i = static_cast<std::size_t>(3 * c);
        EXPECT_EQ(out[i].tradeoff, 100.0 + c);
        EXPECT_EQ(out[i + 1].tradeoff, 1.0);
        EXPECT_EQ(out[i + 2].tradeoff, 2.0);
    }
    ASSERT_EQ(log->groups.size(), 1u);
    EXPECT_EQ(log->groups[0], (std::vector<double>{1.0, 1.0, 2.0}));
    EXPECT_EQ(runner.cache().stats().misses, 4u); // 2 custom + 2 probe
    EXPECT_EQ(runner.cache().stats().hits, 4u);
}

TEST(SweepGroups, OneGroupRunsAsOneCallOnFourRunners)
{
    // One group is one runPolicies call even on a runner of four
    // (bench_fig7_ablation's three jobs on one seed), and its results
    // are those of each job run alone.
    const auto log = std::make_shared<ProbeLog>();
    std::vector<SweepJob> jobs;
    for (const double v : {1.0, 2.0, 3.0})
        jobs.push_back(probeJob(log, v, 1));

    SweepRunner ref(SweepOptions{1, {}});
    const std::vector<ScenarioResult> alone = runAlone(ref, jobs);
    EXPECT_TRUE(log->groups.empty());
    EXPECT_EQ(log->runs, 3);

    SweepRunner four(SweepOptions{4, {}});
    const std::vector<ScenarioResult> out = four.run(jobs);
    ASSERT_EQ(log->groups.size(), 1u);
    EXPECT_EQ(log->groups[0], (std::vector<double>{1.0, 1.0, 2.0, 3.0}));
    expectSameResults(out, alone);
}

TEST(SweepGroups, JobsWithoutACacheKeyRunAloneUncached)
{
    // An empty key disables caching for the job: two keyless jobs of
    // one (scenario, seed) neither group nor share a cache entry.
    const auto log = std::make_shared<ProbeLog>();
    std::vector<SweepJob> jobs;
    for (const double v : {1.0, 2.0}) {
        jobs.push_back(probeJob(log, v, 1));
        jobs.back().cache_key.clear();
    }
    SweepRunner runner(SweepOptions{1, {}});
    const std::vector<ScenarioResult> out = runner.run(jobs);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].tradeoff, 1.0);
    EXPECT_EQ(out[1].tradeoff, 2.0);
    EXPECT_TRUE(log->groups.empty());
    EXPECT_EQ(log->runs, 2);
    EXPECT_EQ(runner.cache().size(), 0u);
}

TEST(SweepGroups, FailedSweepStillPublishesFinishedJobs)
{
    for (const std::size_t njobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs=" + std::to_string(njobs));
        TempDir dir("failed-" + std::to_string(njobs));
        const auto log = std::make_shared<ProbeLog>();
        std::vector<SweepJob> jobs;
        jobs.push_back(SweepJob::custom("finished", [] {
            ScenarioResult r;
            r.scenario_id = "finished";
            return r;
        }));
        jobs.push_back(SweepJob::custom("", []() -> ScenarioResult {
            throw std::runtime_error("job failed");
        }));
        // And a group with one failing member, grouped at both --jobs.
        for (const std::uint64_t seed : {2u, 3u, 4u, 5u})
            for (const double v : {1.0, kThrow})
                jobs.push_back(probeJob(log, v, seed));

        SweepRunner runner(SweepOptions{njobs, dir.path()});
        EXPECT_THROW(runner.run(jobs), std::runtime_error);
        EXPECT_GT(runner.lastWallMs(), 0.0);

        // A second instance on the same directory (a later process)
        // finds every finished job; the failed ones were never stored.
        DiskRunCache later(dir.path());
        ScenarioResult r;
        EXPECT_TRUE(later.load("finished", r));
        EXPECT_EQ(r.scenario_id, "finished");
        for (std::size_t i = 2; i < jobs.size(); ++i) {
            SCOPED_TRACE(jobs[i].cache_key);
            EXPECT_EQ(later.load(jobs[i].cache_key, r),
                      jobs[i].policy.value != kThrow);
        }
    }
}

} // namespace
} // namespace smartconf::exec
