/** @file Unit tests for the namenode lock/du dynamics (HD4995). */

#include <gtest/gtest.h>

#include <optional>

#include "dfs/namenode.h"

namespace smartconf::dfs {
namespace {

NamenodeParams
params()
{
    NamenodeParams p;
    p.traversal_files_per_tick = 1000.0;
    p.yield_overhead_ticks = 2.0;
    p.write_service_per_tick = 50.0;
    return p;
}

/** One client write arriving at @p now. */
void
submitWrite(Namenode &nn, sim::Tick now)
{
    nn.submit(1, std::nullopt, now);
}

/** An admin du over @p files files arriving at @p now. */
void
submitDu(Namenode &nn, std::uint64_t files, sim::Tick now)
{
    nn.submit(0, files, now);
}

TEST(Namenode, WritesServedPromptlyWithoutDu)
{
    Namenode nn(params(), 1000);
    for (int t = 0; t < 10; ++t) {
        submitWrite(nn, t);
        nn.step(t);
    }
    EXPECT_EQ(nn.servedWrites(), 10u);
    EXPECT_LE(nn.takeRecentMaxWait(), 1.0);
}

TEST(Namenode, DuHoldsLockAndBlocksWrites)
{
    Namenode nn(params(), 10000); // one big chunk: 10 ticks of lock
    submitDu(nn, 10000, 0);
    sim::Tick t = 0;
    nn.step(t);
    submitWrite(nn, ++t); // arrives while the lock is held
    while (nn.duActive()) {
        nn.step(t);
        ++t;
    }
    nn.step(t);
    EXPECT_EQ(nn.servedWrites(), 1u);
    EXPECT_GE(nn.takeRecentMaxWait(), 8.0) << "write waited out the du";
}

TEST(Namenode, ChunkingBoundsLockHoldTime)
{
    // limit 2000 at 1000 files/tick -> 2-tick holds.
    Namenode nn(params(), 2000);
    submitDu(nn, 10000, 0);
    sim::Tick t = 0;
    while (nn.duActive() && t < 1000) {
        nn.step(t);
        ++t;
    }
    ASSERT_FALSE(nn.duActive());
    const auto &results = nn.duResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].files, 10000u);
    EXPECT_EQ(results[0].yields, 4u); // 5 chunks, 4 lock releases
    EXPECT_NEAR(nn.lastHoldTicks(), 2.0, 1.0);
}

TEST(Namenode, SmallerLimitMeansShorterWaitsButSlowerDu)
{
    auto run = [](std::uint64_t limit) {
        Namenode nn(params(), limit);
        submitDu(nn, 20000, 0);
        sim::Tick t = 0;
        while (nn.duActive() && t < 5000) {
            if (t % 2 == 0)
                submitWrite(nn, t);
            nn.step(t);
            ++t;
        }
        // Serve the writes that queued behind the final lock hold.
        while (nn.pendingWrites() > 0 && t < 6000) {
            nn.step(t);
            ++t;
        }
        return std::make_pair(nn.takeRecentMaxWait(),
                              nn.duResults().at(0).latency_ticks);
    };
    const auto [wait_small, du_small] = run(1000);
    const auto [wait_big, du_big] = run(20000);
    EXPECT_LT(wait_small, wait_big);
    EXPECT_GT(du_small, du_big);
}

TEST(Namenode, RecentMaxWaitResets)
{
    Namenode nn(params(), 5000);
    submitDu(nn, 5000, 0);
    sim::Tick t = 0;
    nn.step(t++);
    submitWrite(nn, t);
    while (nn.duActive() || nn.pendingWrites() > 0) {
        nn.step(t);
        ++t;
    }
    EXPECT_GT(nn.takeRecentMaxWait(), 0.0);
    EXPECT_DOUBLE_EQ(nn.takeRecentMaxWait(), 0.0) << "tracker reset";
}

TEST(Namenode, SecondDuIgnoredWhileActive)
{
    Namenode nn(params(), 1000);
    submitDu(nn, 50000, 0);
    nn.step(0);
    submitDu(nn, 50000, 1); // dropped
    sim::Tick t = 1;
    while (nn.duActive() && t < 10000) {
        nn.step(t);
        ++t;
    }
    EXPECT_EQ(nn.duResults().size(), 1u);
}

TEST(Namenode, DynamicLimitAdjustment)
{
    Namenode nn(params(), 1000);
    nn.setSummaryLimit(0); // clamped to >= 1
    EXPECT_EQ(nn.summaryLimit(), 1u);
    nn.setSummaryLimit(4000);
    EXPECT_EQ(nn.summaryLimit(), 4000u);
}

TEST(Namenode, ChunksCompletedCounts)
{
    Namenode nn(params(), 1000);
    submitDu(nn, 3000, 0);
    sim::Tick t = 0;
    while (nn.duActive() && t < 1000) {
        nn.step(t);
        ++t;
    }
    EXPECT_EQ(nn.chunksCompleted(), 3u);
}

} // namespace
} // namespace smartconf::dfs

namespace smartconf::dfs {
namespace {

TEST(NamenodeGrowth, DuSummarisesItsRequestsFileCount)
{
    NamenodeParams p;
    p.traversal_files_per_tick = 100.0;
    p.write_service_per_tick = 50.0;
    // Whatever was written before it, a du walks exactly the file
    // count its request carries: the namespace is not modelled.
    for (const std::uint64_t files : {0u, 300u}) {
        Namenode nn(p, 1000000);
        nn.submit(500, std::nullopt, 0);
        sim::Tick t = 0;
        while (nn.pendingWrites() > 0)
            nn.step(t++);
        ASSERT_EQ(nn.servedWrites(), 500u);

        submitDu(nn, files, t);
        while (nn.duActive() && t < 1000)
            nn.step(t++);
        ASSERT_EQ(nn.duResults().size(), 1u) << "files=" << files;
        EXPECT_EQ(nn.duResults()[0].files, files);
    }
}

TEST(NamenodeGrowth, WritesKeepFlowingBetweenChunks)
{
    NamenodeParams p;
    p.traversal_files_per_tick = 100.0;
    p.yield_overhead_ticks = 1.0;
    p.write_service_per_tick = 10.0;
    Namenode nn(p, 200); // 2-tick holds
    submitDu(nn, 5000, 0);
    std::uint64_t served_mid = 0;
    for (sim::Tick t = 0; t < 200 && nn.duActive(); ++t) {
        submitWrite(nn, t);
        nn.step(t);
        served_mid = nn.servedWrites();
    }
    EXPECT_GT(served_mid, 0u)
        << "chunking must let writes through mid-du";
}

} // namespace
} // namespace smartconf::dfs
