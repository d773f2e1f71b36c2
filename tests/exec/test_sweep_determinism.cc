#include "exec/sweep.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/disk_cache.h"
#include "fault/spec.h"
#include "scenarios/scenario.h"
#include "workload/sharded.h"

namespace {

using namespace smartconf::scenarios;
using smartconf::exec::SweepArgs;
using smartconf::exec::SweepJob;
using smartconf::exec::SweepOptions;
using smartconf::exec::SweepRunner;

void
expectSeriesIdentical(const smartconf::sim::TimeSeries &a,
                      const smartconf::sim::TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.points()[i].tick, b.points()[i].tick);
        EXPECT_EQ(a.points()[i].value, b.points()[i].value); // exact
    }
}

/** Bit-identical: every scalar exactly equal, every curve point-wise. */
void
expectResultIdentical(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.scenario_id, b.scenario_id);
    EXPECT_EQ(a.policy_label, b.policy_label);
    EXPECT_EQ(a.violated, b.violated);
    EXPECT_EQ(a.violation_time_s, b.violation_time_s);
    EXPECT_EQ(a.worst_goal_metric, b.worst_goal_metric);
    EXPECT_EQ(a.goal_value, b.goal_value);
    EXPECT_EQ(a.tradeoff, b.tradeoff);
    EXPECT_EQ(a.raw_tradeoff, b.raw_tradeoff);
    EXPECT_EQ(a.mean_conf, b.mean_conf);
    EXPECT_EQ(a.ops_simulated, b.ops_simulated);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    ASSERT_EQ(a.shard_ops.size(), b.shard_ops.size());
    for (std::size_t i = 0; i < a.shard_ops.size(); ++i)
        EXPECT_EQ(a.shard_ops[i], b.shard_ops[i]);
    expectSeriesIdentical(a.perf_series, b.perf_series);
    expectSeriesIdentical(a.conf_series, b.conf_series);
    expectSeriesIdentical(a.tradeoff_series, b.tradeoff_series);
}

std::vector<SweepJob>
allScenarioJobs()
{
    std::vector<SweepJob> jobs;
    for (const auto &s : makeAllScenarios()) {
        const ScenarioInfo &info = s->info();
        jobs.push_back(
            SweepJob::forScenario(info.id, Policy::smart(), 1));
        jobs.push_back(SweepJob::forScenario(
            info.id, Policy::makeStatic(info.patch_default), 1));
    }
    return jobs;
}

TEST(SweepDeterminism, Jobs1AndJobs8BitIdenticalForAllSixScenarios)
{
    const std::vector<SweepJob> jobs = allScenarioJobs();

    SweepRunner serial(SweepOptions{1, {}});
    SweepRunner parallel(SweepOptions{8, {}});
    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_EQ(parallel.jobs(), 8u);

    const std::vector<ScenarioResult> a = serial.run(jobs);
    const std::vector<ScenarioResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job #" + std::to_string(i) + " (" +
                     a[i].scenario_id + ", " + a[i].policy_label + ")");
        expectResultIdentical(a[i], b[i]);
    }

    // All twelve triples are distinct: no duplicate simulation ran.
    EXPECT_EQ(serial.cache().stats().misses, jobs.size());
    EXPECT_EQ(serial.cache().stats().hits, 0u);
    EXPECT_EQ(parallel.cache().stats().misses, jobs.size());
    EXPECT_EQ(parallel.cache().stats().hits, 0u);
}

TEST(SweepDeterminism, JobsMatrixBitIdentical)
{
    // Outputs are a pure function of each run's parameters and its
    // logical 16-shard layout, so every --jobs value — including one
    // chaos campaign exercising the fault plane — is byte-identical.
    std::vector<SweepJob> jobs = allScenarioJobs();
    jobs.push_back(SweepJob::forScenario(
        "HB3813",
        Policy::smart().withChaos(
            smartconf::fault::ChaosSpec::kitchenSink(7)),
        1));

    SweepRunner base(SweepOptions{1, {}});
    const std::vector<ScenarioResult> ref = base.run(jobs);
    ASSERT_EQ(ref.size(), jobs.size());

    for (const std::size_t njobs : {std::size_t{2}, std::size_t{8}}) {
        SweepRunner runner(SweepOptions{njobs, {}});
        const std::vector<ScenarioResult> got = runner.run(jobs);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(njobs) + " job #" +
                         std::to_string(i) + " (" +
                         ref[i].scenario_id + ", " +
                         ref[i].policy_label + ")");
            expectResultIdentical(ref[i], got[i]);
        }
    }
}

TEST(SweepDeterminism, ShardOpsSumMatchesOpsSimulated)
{
    // The per-shard counters partition the generated workload: lanes
    // sum to the run's ops_simulated for every generator-driven
    // scenario (MR2820 counts completed tasks on both sides too).
    SweepRunner runner(SweepOptions{1, {}});
    for (const char *id : {"HB3813", "HB6728", "HB2149", "CA6059",
                           "HD4995", "MR2820"}) {
        const ScenarioResult r = runner.runOne(SweepJob::forScenario(
            id, Policy::smart(), 3));
        SCOPED_TRACE(id);
        ASSERT_EQ(r.shard_ops.size(), smartconf::workload::kShards);
        std::uint64_t sum = 0;
        for (const std::uint64_t v : r.shard_ops)
            sum += v;
        EXPECT_EQ(sum, r.ops_simulated);
    }
}

TEST(SweepDeterminism, ResultBytesPinnedForEveryPolicyFamily)
{
    // bench_sweep's sha hashes only aggregates, and perfbench's digests
    // cover only the smart/patch/buggy policies.  These checksums pin
    // every serialized byte (series, mean_conf, worst_goal_metric,
    // violation time) of every policy family, including the Fig. 7
    // ablations and two chaos campaigns, so a rewrite of the scenario
    // loops cannot move an output no other check sees.  Re-pin only
    // for an intended output change.
    using smartconf::exec::DiskRunCache;
    using smartconf::fault::ChaosSpec;
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"CA6059", 0x0612a61cd914f647ULL},
        {"HB2149", 0x546f1c52691b0cacULL},
        {"HB3813", 0x87aafea69f529589ULL},
        {"HB6728", 0x38b6b24f0463ce0eULL},
        {"HD4995", 0xad801a291b95b5f9ULL},
        {"MR2820", 0x49956d1fad416357ULL},
    };
    for (const auto &[id, want] : pinned) {
        SCOPED_TRACE(id);
        const auto scenario = makeScenario(id);
        ASSERT_NE(scenario, nullptr);
        const ScenarioInfo &info = scenario->info();
        const Policy policies[] = {
            Policy::smart(),
            Policy::makeStatic(info.patch_default),
            Policy::makeStatic(info.buggy_default),
            Policy::singlePole(),
            Policy::noVirtualGoal(),
            Policy::smart().withChaos(ChaosSpec::kitchenSink(3)),
            Policy::smart().withChaos(ChaosSpec::delayedActuation(3, 9)),
        };
        std::vector<char> bytes;
        for (const Policy &policy : policies) {
            for (const std::uint64_t seed : {1, 2}) {
                const std::vector<char> payload =
                    DiskRunCache::serializeResult(
                        scenario->run(policy, seed));
                bytes.insert(bytes.end(), payload.begin(), payload.end());
            }
        }
        const std::uint64_t got =
            DiskRunCache::checksum64(bytes.data(), bytes.size());
        EXPECT_EQ(got, want) << std::hex << "got 0x" << got;
    }
}

TEST(SweepDeterminism, ReplayOnWarmCacheIsAllHitsAndIdentical)
{
    const std::vector<SweepJob> jobs = allScenarioJobs();
    SweepRunner runner(SweepOptions{4, {}});

    const std::vector<ScenarioResult> first = runner.run(jobs);
    const std::vector<ScenarioResult> second = runner.run(jobs);

    EXPECT_EQ(runner.cache().stats().misses, jobs.size());
    EXPECT_EQ(runner.cache().stats().hits, jobs.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectResultIdentical(first[i], second[i]);
}

TEST(SweepDeterminism, ResultsArriveInSubmissionOrder)
{
    // Job 0 finishes last by construction; order must not care.
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(SweepJob::custom("", [i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds((8 - i) * 10));
            ScenarioResult r;
            r.scenario_id = "job-" + std::to_string(i);
            return r;
        }));

    SweepRunner runner(SweepOptions{8, {}});
    const std::vector<ScenarioResult> out = runner.run(jobs);
    ASSERT_EQ(out.size(), jobs.size());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i].scenario_id, "job-" + std::to_string(i));
}

TEST(SweepDeterminism, DuplicateJobsSimulateOnce)
{
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(
            SweepJob::forScenario("HB3813", Policy::smart(), 1));

    SweepRunner runner(SweepOptions{4, {}});
    const std::vector<ScenarioResult> out = runner.run(jobs);
    EXPECT_EQ(runner.cache().stats().misses, 1u);
    EXPECT_EQ(runner.cache().stats().hits, 5u);
    for (std::size_t i = 1; i < out.size(); ++i)
        expectResultIdentical(out[0], out[i]);
}

TEST(SweepDeterminism, JobExceptionPropagatesFromRun)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::custom("", [] {
        ScenarioResult r;
        r.scenario_id = "fine";
        return r;
    }));
    jobs.push_back(SweepJob::custom("", []() -> ScenarioResult {
        throw std::runtime_error("job failed");
    }));

    SweepRunner serial(SweepOptions{1, {}});
    EXPECT_THROW(serial.run(jobs), std::runtime_error);
    SweepRunner parallel(SweepOptions{4, {}});
    EXPECT_THROW(parallel.run(jobs), std::runtime_error);

    // The throwing job first, then a keyed one: the keyed job still
    // runs at every --jobs, so the cache (and the disk store behind
    // it) ends a failing sweep in the same state.
    std::vector<SweepJob> failing_first;
    failing_first.push_back(SweepJob::custom("", []() -> ScenarioResult {
        throw std::runtime_error("job failed");
    }));
    failing_first.push_back(SweepJob::custom("k2", [] {
        ScenarioResult r;
        r.scenario_id = "k2";
        return r;
    }));
    SweepRunner serial_ff(SweepOptions{1, {}});
    SweepRunner parallel_ff(SweepOptions{4, {}});
    EXPECT_THROW(serial_ff.run(failing_first), std::runtime_error);
    EXPECT_THROW(parallel_ff.run(failing_first), std::runtime_error);
    EXPECT_EQ(serial_ff.cache().size(), 1u);
    EXPECT_EQ(serial_ff.cache().stats().misses, 1u);
    EXPECT_EQ(serial_ff.cache().size(), parallel_ff.cache().size());
    EXPECT_EQ(serial_ff.cache().stats().misses,
              parallel_ff.cache().stats().misses);
    EXPECT_EQ(serial_ff.cache().stats().hits,
              parallel_ff.cache().stats().hits);
}

TEST(SweepDeterminism, UnknownScenarioIdThrows)
{
    SweepRunner runner(SweepOptions{1, {}});
    EXPECT_THROW(runner.run({SweepJob::forScenario(
                     "NOPE", Policy::smart(), 1)}),
                 std::invalid_argument);
}

TEST(SweepArgsParsing, JobsAndJsonFlags)
{
    const char *argv1[] = {"bench", "--jobs", "4", "--json"};
    SweepArgs a = smartconf::exec::parseSweepArgs(
        4, const_cast<char **>(argv1));
    EXPECT_EQ(a.sweep.jobs, 4u);
    EXPECT_TRUE(a.json);

    const char *argv2[] = {"bench", "--jobs=2"};
    SweepArgs b = smartconf::exec::parseSweepArgs(
        2, const_cast<char **>(argv2));
    EXPECT_EQ(b.sweep.jobs, 2u);
    EXPECT_FALSE(b.json);

    const char *argv3[] = {"bench"};
    SweepArgs c = smartconf::exec::parseSweepArgs(
        1, const_cast<char **>(argv3));
    EXPECT_EQ(c.sweep.jobs, 0u); // 0 = hardware concurrency
}

TEST(SweepArgsParsing, JobsAboveTheCapExitWithUsage)
{
    // Parsing builds no pool, so these start no threads; each value
    // would otherwise become one helper thread per extra runner.
    const char *argv_max[] = {"bench", "--jobs", "1024"};
    EXPECT_EQ(smartconf::exec::parseSweepArgs(
                  3, const_cast<char **>(argv_max))
                  .sweep.jobs,
              1024u);
    for (const char *v : {"1025", "100000", "99999999999999999999"}) {
        const char *argv[] = {"bench", "--jobs", v};
        EXPECT_EXIT(smartconf::exec::parseSweepArgs(
                        3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(2), "invalid --jobs value")
            << v;
    }
}

} // namespace
