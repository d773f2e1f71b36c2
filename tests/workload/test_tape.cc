/**
 * @file
 * YcsbTape: a recorded stream reads exactly as the plain generator.
 *
 * Every tick's ops (type and size bits), and generated() and
 * shardOps() at every stop tick, must equal those of a
 * ShardedYcsbGenerator given the same per-tick parameters; a reader
 * that replays recorded ticks must see the same ops as the one that
 * recorded them, and replaying must not set parameters again.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "workload/sharded.h"
#include "workload/tape.h"

namespace smartconf::workload {
namespace {

YcsbParams
ycsbParams()
{
    YcsbParams p;
    p.write_fraction = 0.4;
    p.request_size_mb = 1.5;
    p.ops_per_tick = 10.0;
    p.burstiness = 0.3;
    p.size_jitter = 0.2;
    return p;
}

/** Mean rates that give ticks of n = 0, n <= 32, 33-512 and > 512. */
constexpr std::array<double, 8> kRates = {0.0,  4.0,   10.0,  31.0,
                                          45.0, 380.0, 700.0, 2000.0};

/** A schedule of all three knobs, a function of the tick alone. */
void
setParams(ShardedYcsbGenerator &gen, sim::Tick t)
{
    gen.setOpsPerTick(kRates[static_cast<std::size_t>(t) % kRates.size()]);
    gen.setWriteFraction((t / 5) % 2 ? 0.9 : 0.1);
    gen.setRequestSizeMb(0.5 + static_cast<double>(t % 3));
}

void
expectSameOps(std::span<const Op> got, const std::vector<Op> &want,
              sim::Tick t)
{
    ASSERT_EQ(got.size(), want.size()) << "tick " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].type, want[i].type) << "tick " << t << " op " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].size_mb),
                  std::bit_cast<std::uint64_t>(want[i].size_mb))
            << "tick " << t << " op " << i;
    }
}

std::vector<std::uint64_t>
asVector(const std::array<std::uint64_t, kShards> &a)
{
    return {a.begin(), a.end()};
}

TEST(YcsbTape, TicksAndCountersMatchThePlainGenerator)
{
    for (const std::uint64_t seed : {1u, 7u}) {
        YcsbTape tape(ycsbParams(), sim::Rng(seed));
        ShardedYcsbGenerator gen(ycsbParams(), sim::Rng(seed));
        std::vector<Op> want;
        std::array<int, 4> classes{}; // n = 0, <= 32, <= 512, > 512
        EXPECT_EQ(tape.generated(0), 0u);
        EXPECT_EQ(tape.shardOps(0), asVector(gen.shardOps()));
        for (sim::Tick t = 0; t < 200; ++t) {
            setParams(gen, t);
            gen.tickInto(want);
            expectSameOps(tape.tick(t, setParams), want, t);
            // Every tick is a possible stop tick of some run.
            ASSERT_EQ(tape.generated(t + 1), gen.generated()) << t;
            ASSERT_EQ(tape.shardOps(t + 1), asVector(gen.shardOps()))
                << t;
            const std::size_t n = want.size();
            ++classes[n == 0 ? 0 : n <= 32 ? 1 : n <= 512 ? 2 : 3];
        }
        EXPECT_EQ(tape.ticks(), 200);
        for (const int c : classes)
            EXPECT_GT(c, 0) << "a batch-size class was not covered";
    }
}

TEST(YcsbTape, ReplaySeesTheRecordingAndSetsNoParameters)
{
    YcsbTape tape(ycsbParams(), sim::Rng(3));
    int set_calls = 0;
    const auto counted = [&](ShardedYcsbGenerator &gen, sim::Tick t) {
        ++set_calls;
        setParams(gen, t);
    };

    // A short reader records ticks [0, 60), as a run that crashes
    // early would; copies of its ops are kept.
    std::vector<std::vector<Op>> first;
    for (sim::Tick t = 0; t < 60; ++t) {
        const std::span<const Op> ops = tape.tick(t, counted);
        first.emplace_back(ops.begin(), ops.end());
    }
    EXPECT_EQ(set_calls, 60);

    // A full-length reader replays them, then records the rest.
    ShardedYcsbGenerator gen(ycsbParams(), sim::Rng(3));
    std::vector<Op> want;
    for (sim::Tick t = 0; t < 150; ++t) {
        setParams(gen, t);
        gen.tickInto(want);
        const std::span<const Op> ops = tape.tick(t, counted);
        expectSameOps(ops, want, t);
        if (t < 60)
            expectSameOps(ops, first[static_cast<std::size_t>(t)], t);
    }
    EXPECT_EQ(set_calls, 150);
    EXPECT_EQ(tape.generated(150), gen.generated());

    // The short reader's counters still read at its own stop tick.
    ShardedYcsbGenerator again(ycsbParams(), sim::Rng(3));
    for (sim::Tick t = 0; t < 60; ++t) {
        setParams(again, t);
        again.tickInto(want);
    }
    EXPECT_EQ(tape.generated(60), again.generated());
    EXPECT_EQ(tape.shardOps(60), asVector(again.shardOps()));
}

TEST(YcsbTape, FixedParametersNeedNoSchedule)
{
    YcsbTape tape(ycsbParams(), sim::Rng(11));
    ShardedYcsbGenerator gen(ycsbParams(), sim::Rng(11));
    std::vector<Op> want;
    for (sim::Tick t = 0; t < 50; ++t) {
        gen.tickInto(want);
        expectSameOps(tape.tick(t), want, t);
    }
    EXPECT_EQ(tape.generated(50), gen.generated());
    EXPECT_EQ(tape.shardOps(50), asVector(gen.shardOps()));
}

TEST(ShardedYcsb, AppendTickAppendsWhatTickIntoDraws)
{
    ShardedYcsbGenerator a(ycsbParams(), sim::Rng(5));
    ShardedYcsbGenerator b(ycsbParams(), sim::Rng(5));
    std::vector<Op> appended, tick;
    for (sim::Tick t = 0; t < 40; ++t) {
        setParams(a, t);
        setParams(b, t);
        const std::size_t before = appended.size();
        a.appendTick(appended);
        b.tickInto(tick);
        expectSameOps(std::span<const Op>(appended).subspan(before), tick,
                      t);
    }
    EXPECT_EQ(appended.size(), a.generated());
    EXPECT_EQ(a.shardOps(), b.shardOps());
}

} // namespace
} // namespace smartconf::workload
