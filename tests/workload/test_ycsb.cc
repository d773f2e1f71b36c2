/** @file Unit tests for the YCSB-like workload generator. */

#include <gtest/gtest.h>

#include <vector>

#include "workload/ycsb.h"

namespace smartconf::workload {
namespace {

YcsbParams
params(double write_frac, double size_mb = 1.0, double rate = 20.0)
{
    YcsbParams p;
    p.write_fraction = write_frac;
    p.request_size_mb = size_mb;
    p.ops_per_tick = rate;
    p.burstiness = 0.2;
    return p;
}

TEST(Ycsb, WriteFractionApproximatelyHonoured)
{
    YcsbGenerator gen(params(0.5), sim::Rng(1));
    std::uint64_t writes = 0, total = 0;
    std::vector<Op> ops;
    for (int t = 0; t < 1000; ++t) {
        gen.tickInto(ops);
        for (const auto &op : ops) {
            ++total;
            writes += op.type == Op::Type::Write ? 1 : 0;
        }
    }
    EXPECT_GT(total, 10000u);
    EXPECT_NEAR(static_cast<double>(writes) / total, 0.5, 0.03);
}

TEST(Ycsb, AllWritesWhenFractionOne)
{
    YcsbGenerator gen(params(1.0), sim::Rng(2));
    std::vector<Op> ops;
    for (int t = 0; t < 100; ++t) {
        gen.tickInto(ops);
        for (const auto &op : ops)
            EXPECT_EQ(op.type, Op::Type::Write);
    }
}

TEST(Ycsb, AllReadsWhenFractionZero)
{
    YcsbGenerator gen(params(0.0), sim::Rng(3));
    std::vector<Op> ops;
    for (int t = 0; t < 100; ++t) {
        gen.tickInto(ops);
        for (const auto &op : ops)
            EXPECT_EQ(op.type, Op::Type::Read);
    }
}

TEST(Ycsb, MeanRequestSizeTracksParameter)
{
    YcsbGenerator gen(params(1.0, 2.0), sim::Rng(4));
    double acc = 0.0;
    std::uint64_t n = 0;
    std::vector<Op> ops;
    for (int t = 0; t < 500; ++t) {
        gen.tickInto(ops);
        for (const auto &op : ops) {
            acc += op.size_mb;
            ++n;
        }
    }
    EXPECT_NEAR(acc / static_cast<double>(n), 2.0, 0.1);
}

TEST(Ycsb, MeanRateTracksParameter)
{
    YcsbGenerator gen(params(0.5, 1.0, 12.0), sim::Rng(5));
    std::uint64_t total = 0;
    const int ticks = 2000;
    std::vector<Op> ops;
    for (int t = 0; t < ticks; ++t) {
        gen.tickInto(ops);
        total += ops.size();
    }
    EXPECT_NEAR(static_cast<double>(total) / ticks, 12.0, 0.5);
    EXPECT_EQ(gen.generated(), total);
}

TEST(Ycsb, SetParamsSwitchesMidStream)
{
    YcsbGenerator gen(params(1.0, 1.0), sim::Rng(7));
    std::vector<Op> ops;
    gen.tickInto(ops);
    auto p = gen.params();
    p.request_size_mb = 2.0; // HB3813's phase-2 shift
    gen.setParams(p);
    double acc = 0.0;
    std::uint64_t n = 0;
    for (int t = 0; t < 300; ++t) {
        gen.tickInto(ops);
        for (const auto &op : ops) {
            acc += op.size_mb;
            ++n;
        }
    }
    EXPECT_NEAR(acc / static_cast<double>(n), 2.0, 0.1);
}

TEST(Ycsb, DeterministicAcrossIdenticalRuns)
{
    YcsbGenerator a(params(0.5), sim::Rng(8));
    YcsbGenerator b(params(0.5), sim::Rng(8));
    std::vector<Op> oa, ob;
    for (int t = 0; t < 50; ++t) {
        a.tickInto(oa);
        b.tickInto(ob);
        ASSERT_EQ(oa.size(), ob.size());
        for (std::size_t i = 0; i < oa.size(); ++i) {
            EXPECT_EQ(oa[i].type, ob[i].type);
            EXPECT_DOUBLE_EQ(oa[i].size_mb, ob[i].size_mb);
        }
    }
}

} // namespace
} // namespace smartconf::workload
