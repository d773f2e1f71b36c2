/** @file Unit tests for the TestDFSIO-like generator. */

#include <gtest/gtest.h>

#include "workload/dfsio.h"

namespace smartconf::workload {
namespace {

TEST(Dfsio, WriteRateApproximatesParameter)
{
    DfsioParams p;
    p.writes_per_tick = 30.0;
    p.du_period = 1000000; // effectively never
    DfsioGenerator gen(p, sim::Rng(1));
    std::uint64_t writes = 0;
    const int ticks = 2000;
    for (int t = 0; t < ticks; ++t)
        writes += gen.tick(t).writes;
    EXPECT_NEAR(static_cast<double>(writes) / ticks, 30.0, 1.5);
}

TEST(Dfsio, DuIssuedPeriodically)
{
    DfsioParams p;
    p.writes_per_tick = 1.0;
    p.du_period = 100;
    p.du_file_count = 5555;
    DfsioGenerator gen(p, sim::Rng(2));
    int dus = 0;
    for (int t = 0; t < 1000; ++t) {
        const DfsioTick arrivals = gen.tick(t);
        if (arrivals.du_files) {
            ++dus;
            EXPECT_EQ(*arrivals.du_files, 5555u);
        }
    }
    EXPECT_EQ(dus, 10);
}

TEST(Dfsio, FirstTickIssuesDu)
{
    DfsioParams p;
    p.du_period = 500;
    DfsioGenerator gen(p, sim::Rng(4));
    EXPECT_TRUE(gen.tick(0).du_files.has_value());
}

TEST(Dfsio, EmitsPeriodicDuAndCountsIt)
{
    DfsioParams p;
    p.writes_per_tick = 300.0;
    p.burstiness = 0.25;
    p.du_period = 10;
    p.du_file_count = 1000;
    DfsioGenerator gen(p, sim::Rng(22));
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
