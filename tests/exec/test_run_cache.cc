#include "exec/run_cache.h"

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "scenarios/scenario.h"

namespace {

using smartconf::exec::RunCache;
using smartconf::exec::ThreadPool;
using smartconf::scenarios::Policy;
using smartconf::scenarios::ScenarioResult;

ScenarioResult
makeResult(double tradeoff)
{
    ScenarioResult r;
    r.scenario_id = "T";
    r.tradeoff = tradeoff;
    return r;
}

TEST(RunCache, MissThenHit)
{
    RunCache cache;
    int calls = 0;
    auto fn = [&calls] {
        ++calls;
        return makeResult(1.5);
    };
    EXPECT_FALSE(cache.contains("k"));
    EXPECT_DOUBLE_EQ(cache.getOrRun("k", fn).tradeoff, 1.5);
    EXPECT_TRUE(cache.contains("k"));
    EXPECT_DOUBLE_EQ(cache.getOrRun("k", fn).tradeoff, 1.5);
    EXPECT_EQ(calls, 1);
    const RunCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, DistinctKeysDistinctEntries)
{
    RunCache cache;
    cache.getOrRun("a", [] { return makeResult(1.0); });
    cache.getOrRun("b", [] { return makeResult(2.0); });
    EXPECT_DOUBLE_EQ(
        cache.getOrRun("a", [] { return makeResult(-1.0); }).tradeoff,
        1.0);
    EXPECT_DOUBLE_EQ(
        cache.getOrRun("b", [] { return makeResult(-1.0); }).tradeoff,
        2.0);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(RunCache, ClearResetsEntriesAndStats)
{
    RunCache cache;
    cache.getOrRun("a", [] { return makeResult(1.0); });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RunCache, ExactlyOnceUnderConcurrency)
{
    RunCache cache;
    ThreadPool pool(8);
    std::atomic<int> executions{0};
    constexpr int kCallers = 64;

    std::vector<double> seen(kCallers, 0.0);
    pool.parallelFor(kCallers, [&](std::size_t i) {
        seen[i] = cache
                      .getOrRun("hot",
                                [&executions] {
                                    executions.fetch_add(1);
                                    return makeResult(3.25);
                                })
                      .tradeoff;
    });
    for (const double v : seen)
        EXPECT_DOUBLE_EQ(v, 3.25);

    // Racing callers joined the single in-flight run instead of
    // re-simulating: that is the whole point of the cache.
    EXPECT_EQ(executions.load(), 1);
    const RunCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kCallers - 1));
}

TEST(RunCache, ExceptionIsRethrownToEveryCaller)
{
    RunCache cache;
    auto boom = []() -> ScenarioResult {
        throw std::runtime_error("sim failed");
    };
    EXPECT_THROW(cache.getOrRun("bad", boom), std::runtime_error);
    // The failure is memoized like any result (deterministic sims
    // fail deterministically).
    EXPECT_THROW(
        cache.getOrRun("bad", [] { return makeResult(0.0); }),
        std::runtime_error);
}

// --- Policy::cacheKey() / operator== -------------------------------

TEST(PolicyCacheKey, UniqueAcrossAllFourKinds)
{
    const std::vector<Policy> policies = {
        Policy::makeStatic(90.0),
        Policy::smart(),
        Policy::singlePole(0.9),
        Policy::noVirtualGoal(),
    };
    std::set<std::string> keys;
    for (const Policy &p : policies)
        keys.insert(p.cacheKey());
    EXPECT_EQ(keys.size(), policies.size());
}

TEST(PolicyCacheKey, DistinguishesStaticValues)
{
    EXPECT_NE(Policy::makeStatic(90.0).cacheKey(),
              Policy::makeStatic(90.5).cacheKey());
    EXPECT_NE(Policy::makeStatic(90.0), Policy::makeStatic(90.5));
    // Nearly-equal doubles stay distinct (round-trip encoding).
    EXPECT_NE(Policy::makeStatic(1.0).cacheKey(),
              Policy::makeStatic(1.0 + 1e-15).cacheKey());
}

TEST(PolicyCacheKey, DistinguishesPoleOverride)
{
    EXPECT_NE(Policy::singlePole(0.9).cacheKey(),
              Policy::singlePole(0.95).cacheKey());

    Policy smart_plain = Policy::smart();
    Policy smart_pinned = Policy::smart();
    smart_pinned.pole_override = 0.9;
    EXPECT_NE(smart_plain.cacheKey(), smart_pinned.cacheKey());
    EXPECT_FALSE(smart_plain == smart_pinned);
}

TEST(PolicyCacheKey, DistinguishesLabels)
{
    // The label feeds through to ScenarioResult::policy_label, so two
    // runs differing only in label must not be conflated.
    EXPECT_NE(Policy::makeStatic(90.0, "A").cacheKey(),
              Policy::makeStatic(90.0, "B").cacheKey());
}

TEST(PolicyCacheKey, EqualPoliciesCompareEqual)
{
    EXPECT_EQ(Policy::smart(), Policy::smart());
    EXPECT_EQ(Policy::makeStatic(42.0), Policy::makeStatic(42.0));
    EXPECT_EQ(Policy::singlePole(0.9), Policy::singlePole(0.9));
    EXPECT_EQ(Policy::noVirtualGoal(), Policy::noVirtualGoal());
}

TEST(PolicyCacheKey, RunCacheKeyIncludesScenarioAndSeed)
{
    const Policy p = Policy::smart();
    EXPECT_NE(RunCache::key("HB3813", p, 1), RunCache::key("HB3813", p, 2));
    EXPECT_NE(RunCache::key("HB3813", p, 1), RunCache::key("HB6728", p, 1));
    EXPECT_NE(RunCache::key("HB3813", p, 1),
              RunCache::key("HB3813/fig7", p, 1));
    EXPECT_EQ(RunCache::key("HB3813", p, 1), RunCache::key("HB3813", p, 1));
}

} // namespace
