/**
 * @file Degenerate-profile verdicts.
 *
 * Each generator in support/profile_faults.h manufactures one failure
 * *shape*; these tests pin the synthesis verdict for each: the profiler
 * must say "insufficient" (or flag non-monotonicity / a flat gain)
 * instead of silently emitting the most aggressive controller possible.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/pole.h"
#include "core/profiler.h"
#include "support/profile_faults.h"

namespace smartconf::fault {
namespace {

const std::vector<double> kSettings = {40.0, 80.0, 120.0, 160.0};

TEST(ProfileFault, SingleSettingIsInsufficientAndMaximallyDistrusted)
{
    const Profiler p = singleSettingProfile(100.0, 500.0, 5.0, 10, 3);
    EXPECT_EQ(p.settingCount(), 1u);
    EXPECT_FALSE(p.sufficient());
    const ProfileSummary s = p.summarize();
    EXPECT_TRUE(s.insufficient);
    EXPECT_DOUBLE_EQ(s.delta, kMaxDelta);
    EXPECT_GE(s.pole, 0.9) << "distrust must mean a slow pole";
    EXPECT_LT(s.pole, 1.0);
}

TEST(ProfileFault, AllSingletonGroupsAreInsufficient)
{
    const Profiler p = allSingletonProfile(kSettings, 2.0, 40.0);
    EXPECT_EQ(p.settingCount(), kSettings.size());
    const ProfileSummary s = p.summarize();
    EXPECT_TRUE(s.insufficient);
    EXPECT_EQ(s.noise_settings, 0u);
    EXPECT_DOUBLE_EQ(s.lambda, kConservativeLambda);
    // The gain itself IS identifiable from four collinear points.
    EXPECT_NEAR(s.alpha, 2.0, 1e-9);
}

TEST(ProfileFault, ZeroVarianceWithDistinctMeansIsLegitimate)
{
    // A noise-free profile is not a degenerate one: the paper's
    // formulas give delta = 1 (no model error observed) and lambda = 0.
    const Profiler p = zeroVarianceProfile(kSettings, 2.0, 40.0, 5);
    const ProfileSummary s = p.summarize();
    EXPECT_FALSE(s.insufficient);
    EXPECT_DOUBLE_EQ(s.delta, 1.0);
    EXPECT_DOUBLE_EQ(s.lambda, 0.0);
    EXPECT_NEAR(s.alpha, 2.0, 1e-9);
}

TEST(ProfileFault, FlatSurfaceYieldsNearZeroGain)
{
    // alpha ~ 0 means the config does not influence the metric at all;
    // the controller built from it would divide by ~0.  The summary
    // must expose the tiny gain so the runtime can refuse it
    // (Runtime throws on alpha == 0 / non-finite).
    const Profiler p = flatSurfaceProfile(kSettings, 300.0, 2.0, 10, 7);
    const ProfileSummary s = p.summarize();
    EXPECT_TRUE(std::isfinite(s.alpha));
    EXPECT_NEAR(s.alpha, 0.0, 0.05);
    // Flatness also inflates distrust: noise dominates the (near-zero)
    // signal, so the projected pole backs far off.
    EXPECT_GT(s.delta, 1.0);
}

TEST(ProfileFault, ValleyIsFlaggedNonMonotonic)
{
    // Odd-sized grid: the bowl bottom lands on the middle setting and
    // the two endpoints agree, so the interior dips far below the
    // first/last envelope.
    const Profiler p = valleyProfile({40.0, 80.0, 120.0, 160.0, 200.0},
                                     400.0, 0.05, 1.0, 10, 11);
    const ProfileSummary s = p.summarize();
    EXPECT_FALSE(s.monotonic)
        << "a U-shaped response must not pass as linear";
    EXPECT_TRUE(std::isfinite(s.alpha));
}

TEST(ProfileFault, GeneratorsAreDeterministic)
{
    const ProfileSummary a =
        flatSurfaceProfile(kSettings, 300.0, 2.0, 10, 7).summarize();
    const ProfileSummary b =
        flatSurfaceProfile(kSettings, 300.0, 2.0, 10, 7).summarize();
    EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
    EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
    EXPECT_DOUBLE_EQ(a.delta, b.delta);
    EXPECT_DOUBLE_EQ(a.pole, b.pole);
}

} // namespace
} // namespace smartconf::fault
