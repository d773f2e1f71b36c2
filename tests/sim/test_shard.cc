#include "sim/shard.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace {

using smartconf::sim::kShardGranule;
using smartconf::sim::kShards;
using smartconf::sim::Rng;
using smartconf::sim::shardBlockCount;
using smartconf::sim::shardLayout;
using smartconf::sim::ShardPlane;
using smartconf::sim::ShardSpan;

TEST(ShardLayout, BlockCountClampsBetweenOneAndShards)
{
    EXPECT_EQ(shardBlockCount(0), 0u); // empty tick: nothing to fan out
    EXPECT_EQ(shardBlockCount(1), 1u);
    EXPECT_EQ(shardBlockCount(kShardGranule), 1u);
    EXPECT_EQ(shardBlockCount(kShardGranule + 1), 2u);
    EXPECT_EQ(shardBlockCount(kShardGranule * kShards), kShards);
    EXPECT_EQ(shardBlockCount(kShardGranule * kShards * 10), kShards);
}

TEST(ShardLayout, SpansPartitionTheBatchExactly)
{
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{32},
          std::size_t{33}, std::size_t{100}, std::size_t{512},
          std::size_t{517}, std::size_t{5000}}) {
        for (const std::uint64_t seq : {0ull, 1ull, 15ull, 16ull,
                                        12345ull}) {
            ShardSpan spans[kShards];
            const std::size_t blocks = shardLayout(n, seq, spans);
            ASSERT_GE(blocks, 1u);
            ASSERT_LE(blocks, static_cast<std::size_t>(kShards));
            // Contiguous, in order, covering [0, n).
            EXPECT_EQ(spans[0].begin, 0u);
            for (std::size_t b = 1; b < blocks; ++b)
                EXPECT_EQ(spans[b].begin, spans[b - 1].end);
            EXPECT_EQ(spans[blocks - 1].end, n);
            // Distinct lanes per tick: block bodies never share an Rng.
            std::set<std::size_t> lanes;
            for (std::size_t b = 0; b < blocks; ++b) {
                EXPECT_LT(spans[b].lane,
                          static_cast<std::size_t>(kShards));
                lanes.insert(spans[b].lane);
            }
            EXPECT_EQ(lanes.size(), blocks);
        }
    }
}

TEST(ShardLayout, LaneRotatesWithTickSequence)
{
    // Block b of tick seq t lands on lane (t + b) % kShards, so over
    // kShards consecutive small ticks every lane is exercised.
    std::set<std::size_t> first_lanes;
    for (std::uint64_t seq = 0; seq < kShards; ++seq) {
        ShardSpan spans[kShards];
        ASSERT_EQ(shardLayout(8, seq, spans), 1u);
        first_lanes.insert(spans[0].lane);
    }
    EXPECT_EQ(first_lanes.size(), static_cast<std::size_t>(kShards));
}

TEST(ShardLayout, PureFunctionOfSizeAndSequence)
{
    ShardSpan a[kShards], b[kShards];
    const std::size_t na = shardLayout(1000, 42, a);
    const std::size_t nb = shardLayout(1000, 42, b);
    ASSERT_EQ(na, nb);
    for (std::size_t i = 0; i < na; ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].lane, b[i].lane);
    }
}

TEST(ShardPlane, LaneStreamsAreDistinctAndStable)
{
    ShardPlane p1(Rng(99)), p2(Rng(99));
    std::set<std::uint64_t> firsts;
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::uint64_t v1 = p1.lane(s).next();
        const std::uint64_t v2 = p2.lane(s).next();
        EXPECT_EQ(v1, v2); // same base seed -> same lane streams
        firsts.insert(v1);
    }
    firsts.insert(p1.control().next());
    // Control + 16 jump-derived lanes all disagree on their first word.
    EXPECT_EQ(firsts.size(), static_cast<std::size_t>(kShards) + 1);
}

TEST(ShardPlane, OpsCountersAccumulatePerLane)
{
    ShardPlane plane(Rng(1));
    plane.addOps(3, 10);
    plane.addOps(3, 5);
    plane.addOps(0, 1);
    EXPECT_EQ(plane.opsPerShard()[3], 15u);
    EXPECT_EQ(plane.opsPerShard()[0], 1u);
    EXPECT_EQ(plane.opsPerShard()[1], 0u);
}

} // namespace
