/** @file Unit tests for the shard-split workload generators. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "workload/sharded.h"

namespace smartconf::workload {
namespace {

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

DfsioParams
dfsioParams()
{
    DfsioParams p;
    p.writes_per_tick = 300.0;
    p.burstiness = 0.25;
    p.du_period = 10;
    p.du_file_count = 1000;
    return p;
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

TEST(ShardedDfsio, EmitsPeriodicDuAndCountsIt)
{
    ShardedDfsioGenerator gen(dfsioParams(), sim::Rng(22));
    std::uint64_t du_count = 0;
    for (sim::Tick t = 0; t < 100; ++t) {
        if (gen.tick(t).du_files)
            ++du_count;
    }
    EXPECT_EQ(du_count, 10u); // du_period 10 over 100 ticks
    std::uint64_t sum = 0;
    for (const std::uint64_t v : gen.shardOps())
        sum += v;
    EXPECT_EQ(sum, gen.generated());
}

} // namespace
} // namespace smartconf::workload
