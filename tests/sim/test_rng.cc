/** @file Unit tests for the deterministic RNG and Zipfian sampler. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "sim/rng.h"

namespace smartconf::sim {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-5.0, 5.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng r(9);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += r.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowAndBetween)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(10), 10u);
        const auto v = r.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(19);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += r.exponential(4.0);
    EXPECT_NEAR(acc / n, 4.0, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng r(23);
    double acc = 0.0, acc2 = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = r.gaussian(10.0, 2.0);
        acc += x;
        acc2 += x * x;
    }
    const double mean = acc / n;
    const double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable)
{
    Rng base(101);
    Rng f1 = base.fork(1);
    Rng f2 = base.fork(2);
    Rng f1again = base.fork(1);
    EXPECT_EQ(f1.next(), f1again.next());
    EXPECT_NE(f1.next(), f2.next());
}

TEST(Rng, JumpIsDeterministicAndDiverges)
{
    Rng a(202), b(202);
    a.jump();
    b.jump();
    EXPECT_EQ(a.next(), b.next()); // jump is a pure state transform

    Rng unjumped(202);
    Rng jumped(202);
    jumped.jump();
    EXPECT_NE(unjumped.next(), jumped.next());
}

TEST(Rng, RepeatedJumpsCarveDistinctStreams)
{
    // The lane derivation: walk one base stream with jump() and
    // collect a prefix of each substream; no two substreams (nor the
    // base) may collide on their first words.
    Rng walker(303);
    std::set<std::uint64_t> firsts;
    firsts.insert(Rng(303).next());
    for (int s = 0; s < 32; ++s) {
        walker.jump();
        Rng lane = walker;
        firsts.insert(lane.next());
    }
    EXPECT_EQ(firsts.size(), 33u);
}

TEST(Rng, ForkAfterJumpDiffersFromForkBeforeJump)
{
    // jump() remixes the fork seed alongside the state, so forks of a
    // jumped stream don't collide with forks of the original.
    Rng base(404);
    Rng jumped(404);
    jumped.jump();
    EXPECT_NE(base.fork(1).next(), jumped.fork(1).next());
}

TEST(Rng, JumpedStreamMatchesLongAdvance)
{
    // Sanity on the jump polynomial: the jumped stream must still be a
    // valid xoshiro stream (not a fixed point / zero state).  Drawing
    // a few million words from it must not revisit the pre-jump words
    // in lockstep.
    Rng jumped(505);
    jumped.jump();
    Rng plain(505);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (jumped.next() == plain.next())
            ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(Zipfian, InRangeAndSkewed)
{
    Rng r(31);
    ZipfianGenerator z(1000, 0.99);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i) {
        const auto k = z.sample(r);
        ASSERT_LT(k, 1000u);
        ++counts[k];
    }
    // Head items dominate the tail under Zipfian skew.
    EXPECT_GT(counts[0], counts[500] * 5);
    EXPECT_GT(counts[0], 50000 / 100);
}

TEST(Zipfian, UniformWhenThetaZero)
{
    Rng r(37);
    ZipfianGenerator z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c), 10000.0, 600.0);
}

} // namespace
} // namespace smartconf::sim
