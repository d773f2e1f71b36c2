/** @file Unit tests for the logical lane layout and ShardedYcsbGenerator. */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "workload/sharded.h"

namespace smartconf::workload {
namespace {

/** One block as forEachBlock hands it out. */
struct Block
{
    std::size_t lane = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

std::vector<Block>
layout(std::size_t n, std::uint64_t seq)
{
    std::vector<Block> blocks;
    forEachBlock(n, seq,
                 [&](std::size_t lane, std::size_t begin, std::size_t end) {
                     blocks.push_back({lane, begin, end});
                 });
    return blocks;
}

YcsbParams
ycsbParams(double write_frac, double rate = 400.0)
{
    YcsbParams p;
    p.write_fraction = write_frac;
    p.request_size_mb = 1.0;
    p.ops_per_tick = rate;
    p.burstiness = 0.2;
    return p;
}

TEST(ShardLayout, BlockCountClampsBetweenOneAndShards)
{
    EXPECT_EQ(layout(0, 0).size(), 1u); // an empty tick: one empty block
    EXPECT_EQ(layout(1, 0).size(), 1u);
    EXPECT_EQ(layout(kShardGranule, 0).size(), 1u);
    EXPECT_EQ(layout(kShardGranule + 1, 0).size(), 2u);
    EXPECT_EQ(layout(kShardGranule * kShards, 0).size(), kShards);
    EXPECT_EQ(layout(kShardGranule * kShards * 10, 0).size(), kShards);
}

TEST(ShardLayout, SpansPartitionTheBatchExactly)
{
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{32},
          std::size_t{33}, std::size_t{100}, std::size_t{512},
          std::size_t{517}, std::size_t{5000}}) {
        for (const std::uint64_t seq : {0ull, 1ull, 15ull, 16ull,
                                        12345ull}) {
            const std::vector<Block> blocks = layout(n, seq);
            const std::size_t count = blocks.size();
            ASSERT_GE(count, 1u);
            ASSERT_LE(count, kShards);
            // Contiguous, in order, covering [0, n).
            EXPECT_EQ(blocks.front().begin, 0u);
            for (std::size_t b = 1; b < count; ++b)
                EXPECT_EQ(blocks[b].begin, blocks[b - 1].end);
            EXPECT_EQ(blocks.back().end, n);
            // The rule written out: block b is [b·n/B, (b+1)·n/B) on
            // lane (seq + b) % kShards, and no two blocks share a lane.
            std::set<std::size_t> lanes;
            for (std::size_t b = 0; b < count; ++b) {
                EXPECT_EQ(blocks[b].begin, b * n / count);
                EXPECT_EQ(blocks[b].end, (b + 1) * n / count);
                EXPECT_EQ(blocks[b].lane, (seq + b) % kShards);
                lanes.insert(blocks[b].lane);
            }
            EXPECT_EQ(lanes.size(), count);
        }
    }
}

TEST(ShardLayout, LaneRotatesWithTickSequence)
{
    // Block b of tick seq t lands on lane (t + b) % kShards, so over
    // kShards consecutive small ticks every lane is exercised.
    std::set<std::size_t> first_lanes;
    for (std::uint64_t seq = 0; seq < kShards; ++seq) {
        const std::vector<Block> blocks = layout(8, seq);
        ASSERT_EQ(blocks.size(), 1u);
        first_lanes.insert(blocks[0].lane);
    }
    EXPECT_EQ(first_lanes.size(), kShards);
}

TEST(ShardLayout, PureFunctionOfSizeAndSequence)
{
    const std::vector<Block> a = layout(1000, 42);
    const std::vector<Block> b = layout(1000, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].lane, b[i].lane);
    }
}

TEST(ShardedYcsb, ShardCountersSumToGenerated)
{
    ShardedYcsbGenerator gen(ycsbParams(0.5), sim::Rng(12));
    std::vector<Op> ops;
    for (int t = 0; t < 100; ++t)
        gen.tickInto(ops);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : gen.shardOps())
        sum += v;
    EXPECT_EQ(sum, gen.generated());
    EXPECT_GT(gen.generated(), 0u);
    // A 400-op tick splits into 13 rotating blocks; over 100 ticks
    // every lane must have produced something.
    for (const std::uint64_t v : gen.shardOps())
        EXPECT_GT(v, 0u);
}

TEST(ShardedYcsb, HonoursWriteFractionAndMutators)
{
    ShardedYcsbGenerator gen(ycsbParams(1.0), sim::Rng(13));
    std::vector<Op> ops;
    gen.tickInto(ops);
    ASSERT_FALSE(ops.empty());
    for (const Op &op : ops)
        EXPECT_EQ(op.type, Op::Type::Write);

    gen.setWriteFraction(0.0);
    gen.tickInto(ops);
    ASSERT_FALSE(ops.empty());
    for (const Op &op : ops)
        EXPECT_EQ(op.type, Op::Type::Read);
}

} // namespace
} // namespace smartconf::workload
