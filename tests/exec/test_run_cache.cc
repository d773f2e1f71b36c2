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

// --- getOrRunGroup --------------------------------------------------

/** A group fill that logs each call's member list. */
struct GroupLog
{
    std::vector<std::vector<std::size_t>> calls;

    RunCache::GroupFn fn()
    {
        return [this](const std::vector<std::size_t> &members) {
            calls.push_back(members);
            std::vector<ScenarioResult> out;
            for (const std::size_t m : members)
                out.push_back(makeResult(static_cast<double>(m)));
            return out;
        };
    }
};

TEST(RunCache, GroupCountsEachKeyAsGetOrRunWould)
{
    RunCache cache;
    cache.getOrRun("b", [] { return makeResult(-1.0); }); // a miss
    GroupLog log;
    const auto futures = cache.getOrRunGroup(
        {"a", "b", "c", "a"}, log.fn(),
        [](std::size_t) -> ScenarioResult {
            throw std::logic_error("not called");
        });
    ASSERT_EQ(futures.size(), 4u);
    // One call fills the two keys the table missed; "b" was there and
    // the second "a" joins the first.
    ASSERT_EQ(log.calls.size(), 1u);
    EXPECT_EQ(log.calls[0], (std::vector<std::size_t>{0, 2}));
    EXPECT_DOUBLE_EQ(futures[0].get().tradeoff, 0.0);
    EXPECT_DOUBLE_EQ(futures[1].get().tradeoff, -1.0);
    EXPECT_DOUBLE_EQ(futures[2].get().tradeoff, 2.0);
    EXPECT_DOUBLE_EQ(futures[3].get().tradeoff, 0.0);
    const RunCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 3u); // b (getOrRun), a, c
    EXPECT_EQ(s.hits, 2u);   // b, the second a
    EXPECT_EQ(cache.size(), 3u);

    // Everything is a hit now: no further call.
    cache.getOrRunGroup({"c", "a"}, log.fn(),
                        [](std::size_t) { return makeResult(-2.0); });
    EXPECT_EQ(log.calls.size(), 1u);
    EXPECT_EQ(cache.stats().hits, 4u);
}

TEST(RunCache, GroupFailureWithOneMissingKeyStoresItsException)
{
    RunCache cache;
    cache.getOrRun("x", [] { return makeResult(1.0); });
    int group_runs = 0;
    const auto futures = cache.getOrRunGroup(
        {"x", "y"},
        [&group_runs](const std::vector<std::size_t> &members)
            -> std::vector<ScenarioResult> {
            ++group_runs;
            EXPECT_EQ(members, (std::vector<std::size_t>{1}));
            throw std::runtime_error("y failed");
        },
        [](std::size_t) -> ScenarioResult {
            throw std::logic_error("not called");
        });
    // The group's run was y's run: it is not repeated alone.
    EXPECT_EQ(group_runs, 1);
    EXPECT_DOUBLE_EQ(futures[0].get().tradeoff, 1.0);
    EXPECT_THROW(futures[1].get(), std::runtime_error);
    EXPECT_THROW(cache.getOrRun("y", [] { return makeResult(0.0); }),
                 std::runtime_error);
}

TEST(RunCache, GroupFailureRunsEachKeyAlone)
{
    RunCache cache;
    std::vector<std::size_t> alone;
    const auto futures = cache.getOrRunGroup(
        {"x", "y", "z"},
        [](const std::vector<std::size_t> &) -> std::vector<ScenarioResult> {
            throw std::runtime_error("group failed");
        },
        [&alone](std::size_t m) {
            alone.push_back(m);
            if (m == 1)
                throw std::runtime_error("y failed");
            return makeResult(10.0 + static_cast<double>(m));
        });
    EXPECT_EQ(alone, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(futures[0].get().tradeoff, 10.0);
    EXPECT_THROW(futures[1].get(), std::runtime_error);
    EXPECT_DOUBLE_EQ(futures[2].get().tradeoff, 12.0);
    // Only "y" memoized a failure.
    EXPECT_THROW(cache.getOrRun("y", [] { return makeResult(0.0); }),
                 std::runtime_error);
    EXPECT_DOUBLE_EQ(
        cache.getOrRun("z", [] { return makeResult(0.0); }).tradeoff, 12.0);
}

TEST(RunCache, GroupFillsEachKeyOnceUnderConcurrency)
{
    RunCache cache;
    ThreadPool pool(4);
    constexpr std::size_t kKeys = 6, kCallers = 16;
    std::vector<std::atomic<int>> runs(kKeys);
    std::vector<std::vector<double>> seen(kCallers,
                                          std::vector<double>(kKeys));
    pool.parallelFor(kCallers, [&](std::size_t c) {
        // Each caller asks for every key, in a rotated order.
        std::vector<std::string> keys;
        std::vector<std::size_t> ids;
        for (std::size_t k = 0; k < kKeys; ++k) {
            ids.push_back((k + c) % kKeys);
            keys.push_back("k" + std::to_string(ids.back()));
        }
        const auto futures = cache.getOrRunGroup(
            keys,
            [&](const std::vector<std::size_t> &members) {
                std::vector<ScenarioResult> out;
                for (const std::size_t m : members) {
                    runs[ids[m]].fetch_add(1);
                    out.push_back(makeResult(static_cast<double>(ids[m])));
                }
                return out;
            },
            [](std::size_t) -> ScenarioResult {
                throw std::logic_error("not called");
            });
        for (std::size_t k = 0; k < kKeys; ++k)
            seen[c][ids[k]] = futures[k].get().tradeoff;
    });
    for (std::size_t k = 0; k < kKeys; ++k) {
        EXPECT_EQ(runs[k].load(), 1) << "key " << k;
        for (std::size_t c = 0; c < kCallers; ++c)
            EXPECT_DOUBLE_EQ(seen[c][k], static_cast<double>(k));
    }
    EXPECT_EQ(cache.stats().misses, kKeys);
    EXPECT_EQ(cache.stats().hits, kKeys * (kCallers - 1));
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
