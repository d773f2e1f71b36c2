/** @file Tests for operation-trace record and replay. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "kvstore/memtable.h"
#include "sim/shard.h"
#include "workload/trace.h"

namespace smartconf::workload {
namespace {

Op
writeOp(std::uint64_t key, double mb)
{
    Op op;
    op.type = Op::Type::Write;
    op.key = key;
    op.size_mb = mb;
    return op;
}

TEST(Trace, RecordAndReplayRoundTrip)
{
    Trace t;
    t.record(0, {writeOp(1, 1.0), writeOp(2, 2.0)});
    t.record(5, {writeOp(3, 0.5)});
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.horizon(), 5);

    TraceReplayer replay(t);
    EXPECT_EQ(replay.tick(0).size(), 2u);
    EXPECT_TRUE(replay.tick(1).empty());
    const auto at5 = replay.tick(5);
    ASSERT_EQ(at5.size(), 1u);
    EXPECT_EQ(at5[0].key, 3u);
    EXPECT_TRUE(replay.exhausted());
    replay.rewind();
    EXPECT_FALSE(replay.exhausted());
}

TEST(Trace, SerializeParseRoundTrip)
{
    Trace t;
    t.record(3, {writeOp(42, 1.25)});
    Op read;
    read.type = Op::Type::Read;
    read.key = 7;
    read.size_mb = 2.0;
    t.record(10, {read});

    const Trace u = Trace::parse(t.serialize());
    ASSERT_EQ(u.size(), 2u);
    EXPECT_EQ(u.records()[0].tick, 3);
    EXPECT_EQ(u.records()[0].op.type, Op::Type::Write);
    EXPECT_DOUBLE_EQ(u.records()[0].op.size_mb, 1.25);
    EXPECT_EQ(u.records()[1].op.type, Op::Type::Read);
    EXPECT_EQ(u.records()[1].op.key, 7u);
}

TEST(Trace, ParseSkipsCommentsAndBlanks)
{
    const Trace t = Trace::parse(
        "# header\n"
        "\n"
        "1 W 9 0.5\n"
        "   # indented comment\n"
        "2 R 4 1.0\n");
    EXPECT_EQ(t.size(), 2u);
}

TEST(Trace, ParseRejectsMalformedInput)
{
    EXPECT_THROW(Trace::parse("1 W 9\n"), std::runtime_error);
    EXPECT_THROW(Trace::parse("1 X 9 1.0\n"), std::runtime_error);
    EXPECT_THROW(Trace::parse("5 W 1 1.0\n2 W 1 1.0\n"),
                 std::runtime_error);
}

TEST(Trace, CapturesAGeneratorFaithfully)
{
    // Record a YCSB stream, replay it, and verify the replay delivers
    // exactly the recorded operations at the recorded ticks.
    YcsbParams params;
    params.write_fraction = 0.5;
    params.ops_per_tick = 8.0;
    YcsbGenerator gen(params, sim::Rng(44));

    Trace trace;
    std::vector<std::vector<Op>> original;
    for (sim::Tick t = 0; t < 50; ++t) {
        std::vector<Op> ops;
        gen.tickInto(ops);
        trace.record(t, ops);
        original.push_back(std::move(ops));
    }

    TraceReplayer replay(Trace::parse(trace.serialize()));
    for (sim::Tick t = 0; t < 50; ++t) {
        const auto ops = replay.tick(t);
        ASSERT_EQ(ops.size(), original[t].size()) << "tick " << t;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            EXPECT_EQ(ops[i].key, original[t][i].key);
            EXPECT_EQ(ops[i].type, original[t][i].type);
            EXPECT_NEAR(ops[i].size_mb, original[t][i].size_mb, 1e-12);
        }
    }
    EXPECT_TRUE(replay.exhausted());
}

TEST(Trace, ReplaySkipsMissedTicksWithoutDuplicating)
{
    Trace t;
    t.record(1, {writeOp(1, 1.0)});
    t.record(2, {writeOp(2, 1.0)});
    TraceReplayer replay(t);
    // Jumping straight to tick 3 drops older records (they are in the
    // past) rather than delivering them late.
    EXPECT_TRUE(replay.tick(3).empty());
    EXPECT_TRUE(replay.exhausted());
}

TEST(Diurnal, CurveSpansTroughToPeak)
{
    DiurnalCurve curve;
    curve.trough = 0.25;
    curve.period = 240;
    EXPECT_NEAR(curve.at(0), 0.25, 1e-12);
    EXPECT_NEAR(curve.at(120), 1.0, 1e-12);  // mid-period peak
    EXPECT_NEAR(curve.at(240), 0.25, 1e-12); // next day's trough
    for (sim::Tick t = 0; t <= 240; ++t) {
        EXPECT_GE(curve.at(t), 0.25 - 1e-12);
        EXPECT_LE(curve.at(t), 1.0 + 1e-12);
    }
}

TEST(Diurnal, RecordedTraceFollowsTheCurve)
{
    YcsbParams p;
    p.write_fraction = 0.5;
    p.ops_per_tick = 200.0;
    p.burstiness = 0.05; // low noise so the shape is visible
    DiurnalCurve curve;
    curve.trough = 0.2;
    curve.period = 100;

    const Trace trace = recordDiurnal(p, curve, sim::Rng(31), 100);
    ASSERT_GT(trace.size(), 0u);
    // Count ops near the trough (t in [0,10)) vs the peak (t in
    // [45,55)): the peak decade must carry several times the load.
    std::size_t trough_ops = 0, peak_ops = 0;
    for (const auto &r : trace.records()) {
        if (r.tick < 10)
            ++trough_ops;
        else if (r.tick >= 45 && r.tick < 55)
            ++peak_ops;
    }
    EXPECT_GT(peak_ops, trough_ops * 2);
}

TEST(Diurnal, ReplayDrivesAMemtableScenarioSmoke)
{
    // Scenario smoke: a recorded diurnal day replayed through the
    // CA6059-style plant loop (memtable writes + step).  The replay
    // must feed the plant the exact recorded stream, twice over.
    YcsbParams p;
    p.write_fraction = 0.6;
    p.ops_per_tick = 50.0;
    p.burstiness = 0.2;
    const Trace trace =
        recordDiurnal(p, DiurnalCurve{0.3, 120}, sim::Rng(33), 120);

    auto run_plant = [&trace] {
        kvstore::MemtableParams mp;
        mp.flush_rate_mb_per_tick = 25.0;
        kvstore::Memtable memtable(100.0, mp);
        TraceReplayer replay(trace);
        double latency_sum = 0.0;
        std::uint64_t writes_fed = 0;
        for (sim::Tick t = 0; t < 120; ++t) {
            for (const Op &op : replay.tick(t)) {
                if (op.type != Op::Type::Write)
                    continue;
                latency_sum += memtable.write(op.size_mb, t);
                ++writes_fed;
            }
            memtable.step(t);
        }
        EXPECT_TRUE(replay.exhausted());
        EXPECT_GT(writes_fed, 0u);
        return latency_sum;
    };
    EXPECT_EQ(run_plant(), run_plant()); // pure replay, pure plant
}

} // namespace
} // namespace smartconf::workload
