/** @file Unit tests for the SmartConf integral controller (Eq. 2). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/controller.h"

namespace smartconf {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Goal
memGoal(double value, bool hard = true)
{
    Goal g;
    g.metric = "memory_consumption_max";
    g.value = value;
    g.direction = GoalDirection::UpperBound;
    g.hard = hard;
    return g;
}

ControllerParams
params(double alpha, double pole = 0.0, double lambda = 0.0)
{
    ControllerParams p;
    p.alpha = alpha;
    p.pole = pole;
    p.lambda = lambda;
    p.confMax = 1e9;
    return p;
}

TEST(Controller, StepMatchesEquationTwo)
{
    // c(k+1) = c(k) + (1-p)/alpha * e(k+1), soft goal, e = goal - s.
    Controller c(params(2.0, 0.5), memGoal(100.0, false));
    // e = 100 - 60 = 40; step = 0.5/2 * 40 = 10.
    EXPECT_DOUBLE_EQ(c.update(60.0, 5.0), 15.0);
}

TEST(Controller, ConvergesOnLinearPlant)
{
    const double alpha = 1.5;
    Controller c(params(alpha, 0.4), memGoal(300.0, false));
    double conf = 0.0;
    double perf = 0.0;
    for (int k = 0; k < 100; ++k) {
        conf = c.update(perf, conf);
        perf = alpha * conf; // the modeled plant
    }
    EXPECT_NEAR(perf, 300.0, 0.1);
}

TEST(Controller, NegativeGainConverges)
{
    // MR2820-style: perf = 900 - 1.0 * conf, upper-bound goal 800.
    ControllerParams p = params(-1.0, 0.3);
    Controller c(p, memGoal(800.0, false));
    double conf = 0.0;
    double perf = 900.0;
    for (int k = 0; k < 200; ++k) {
        conf = c.update(perf, conf);
        perf = 900.0 - conf;
    }
    EXPECT_NEAR(perf, 800.0, 0.5);
    EXPECT_NEAR(conf, 100.0, 0.5);
}

TEST(Controller, HardGoalTracksVirtualGoal)
{
    Controller c(params(1.0, 0.0, 0.1), memGoal(495.0, true));
    EXPECT_NEAR(c.virtualGoal(), 445.5, 1e-9);
    EXPECT_DOUBLE_EQ(c.setPoint(), c.virtualGoal());
}

TEST(Controller, SoftGoalIgnoresVirtualGoal)
{
    Controller c(params(1.0, 0.0, 0.1), memGoal(495.0, false));
    EXPECT_DOUBLE_EQ(c.setPoint(), 495.0);
}

TEST(Controller, DangerZoneDetection)
{
    Controller c(params(1.0, 0.6, 0.1), memGoal(500.0, true));
    EXPECT_FALSE(c.inDangerZone(440.0)); // below 450 virtual goal
    EXPECT_TRUE(c.inDangerZone(460.0));
}

TEST(Controller, ContextAwarePoleSwitch)
{
    Controller c(params(1.0, 0.6, 0.1), memGoal(500.0, true));
    EXPECT_DOUBLE_EQ(c.effectivePole(400.0), 0.6);
    EXPECT_DOUBLE_EQ(c.effectivePole(470.0), 0.0); // aggressive
}

TEST(Controller, SinglePoleAblationDisablesSwitch)
{
    ControllerParams p = params(1.0, 0.9, 0.1);
    p.useContextAwarePoles = false;
    Controller c(p, memGoal(500.0, true));
    EXPECT_DOUBLE_EQ(c.effectivePole(470.0), 0.9);
}

TEST(Controller, NoVirtualGoalAblationTargetsRawGoal)
{
    ControllerParams p = params(1.0, 0.5, 0.2);
    p.useVirtualGoal = false;
    Controller c(p, memGoal(500.0, true));
    EXPECT_DOUBLE_EQ(c.setPoint(), 500.0);
}

TEST(Controller, DangerZoneReactsHarderThanSafeZone)
{
    Controller c(params(1.0, 0.8, 0.1), memGoal(500.0, true));
    // Safe-zone correction with error -10 around perf 400.
    const double from = 100.0;
    const double safe_next = c.update(c.virtualGoal() - 10.0 + 1e-9, from);
    Controller c2(params(1.0, 0.8, 0.1), memGoal(500.0, true));
    const double danger_next = c2.update(c.virtualGoal() + 10.0, from);
    // Same |error| magnitude: the danger-zone step must be larger.
    EXPECT_GT(std::abs(danger_next - from) - 1e-9,
              std::abs(safe_next - from));
}

TEST(Controller, InteractionFactorSplitsError)
{
    ControllerParams p = params(1.0, 0.0);
    p.interactionFactor = 2.0;
    Controller c(p, memGoal(100.0, false));
    // e = 100; step = (1-0)/(2*1) * 100 = 50.
    EXPECT_DOUBLE_EQ(c.update(0.0, 0.0), 50.0);
}

TEST(Controller, SetInteractionFactorTakesEffect)
{
    Controller c(params(1.0, 0.0), memGoal(100.0, false));
    c.setInteractionFactor(4.0);
    EXPECT_DOUBLE_EQ(c.update(0.0, 0.0), 25.0);
}

TEST(Controller, ClampsToBounds)
{
    ControllerParams p = params(1.0, 0.0);
    p.confMin = 10.0;
    p.confMax = 50.0;
    Controller c(p, memGoal(1000.0, false));
    EXPECT_DOUBLE_EQ(c.update(0.0, 40.0), 50.0);   // huge positive error
    EXPECT_DOUBLE_EQ(c.update(5000.0, 40.0), 10.0); // huge negative error
}

TEST(Controller, SaturationSignalsUnreachableGoal)
{
    ControllerParams p = params(1.0, 0.0);
    p.confMin = 0.0;
    p.confMax = 10.0;
    Controller c(p, memGoal(10000.0, false));
    for (int i = 0; i < 5; ++i)
        c.update(0.0, 10.0); // wants to push far beyond confMax
    EXPECT_TRUE(c.saturated());
}

TEST(Controller, SaturationResetsWhenFeasible)
{
    ControllerParams p = params(1.0, 0.0);
    p.confMax = 10.0;
    Controller c(p, memGoal(10000.0, false));
    for (int i = 0; i < 5; ++i)
        c.update(0.0, 10.0);
    ASSERT_TRUE(c.saturated());
    c.update(10000.0, 5.0); // error now zero: interior update
    EXPECT_FALSE(c.saturated());
}

TEST(Controller, SetGoalRecomputesVirtualGoal)
{
    Controller c(params(1.0, 0.0, 0.1), memGoal(500.0, true));
    Goal g = memGoal(300.0, true);
    c.setGoal(g);
    EXPECT_NEAR(c.virtualGoal(), 270.0, 1e-9);
}

TEST(Controller, LastOutputTracksUpdates)
{
    Controller c(params(1.0, 0.0), memGoal(100.0, false));
    EXPECT_FALSE(c.lastOutput().has_value());
    const double out = c.update(50.0, 0.0);
    ASSERT_TRUE(c.lastOutput().has_value());
    EXPECT_DOUBLE_EQ(*c.lastOutput(), out);
}

TEST(Controller, ConstructionRejectsUnstableParameters)
{
    // These used to be debug-only asserts: a release build would
    // happily divide by alpha == 0 on the first update.
    const Goal g = memGoal(100.0);
    EXPECT_THROW(Controller(params(0.0), g), std::invalid_argument);
    EXPECT_THROW(Controller(params(kNan), g), std::invalid_argument);
    EXPECT_THROW(Controller(params(kInf), g), std::invalid_argument);
    EXPECT_THROW(Controller(params(1.0, 1.0), g),
                 std::invalid_argument); // pole outside [0, 1)
    EXPECT_THROW(Controller(params(1.0, -0.1), g),
                 std::invalid_argument);
    ControllerParams bad_clamp = params(1.0);
    bad_clamp.confMin = 10.0;
    bad_clamp.confMax = 5.0;
    EXPECT_THROW(Controller(bad_clamp, g), std::invalid_argument);
    ControllerParams bad_n = params(1.0);
    bad_n.interactionFactor = 0.5;
    EXPECT_THROW(Controller(bad_n, g), std::invalid_argument);
    // A NaN goal made every update NaN; an infinite one pinned the
    // controller at a clamp.
    EXPECT_THROW(Controller(params(1.0), memGoal(kNan)),
                 std::invalid_argument);
    EXPECT_THROW(Controller(params(1.0), memGoal(kInf)),
                 std::invalid_argument);
    EXPECT_THROW(Controller(params(1.0), memGoal(-kInf)),
                 std::invalid_argument);
}

TEST(Controller, SetGoalRejectsNonFiniteValueAndKeepsGoal)
{
    Controller c(params(1.0, 0.0, 0.1), memGoal(500.0, true));
    EXPECT_THROW(c.setGoal(memGoal(kNan)), std::invalid_argument);
    EXPECT_THROW(c.setGoal(memGoal(kInf)), std::invalid_argument);
    EXPECT_THROW(c.setGoal(memGoal(-kInf)), std::invalid_argument);
    EXPECT_DOUBLE_EQ(c.goal().value, 500.0);
    EXPECT_NEAR(c.virtualGoal(), 450.0, 1e-9);
    const double out = c.update(400.0, 10.0);
    EXPECT_TRUE(std::isfinite(out));
    EXPECT_DOUBLE_EQ(out, 60.0); // 10 + (450 - 400) / alpha
}

TEST(Controller, NonFinitePerfHoldsLastOutput)
{
    Controller c(params(2.0, 0.5), memGoal(100.0, false));
    const double good = c.update(60.0, 5.0);
    EXPECT_EQ(c.faults(), 0u);
    EXPECT_DOUBLE_EQ(c.update(kNan, good), good);
    EXPECT_DOUBLE_EQ(c.update(kInf, good), good);
    EXPECT_DOUBLE_EQ(c.update(-kInf, good), good);
    EXPECT_EQ(c.faults(), 3u);
    // Recovery: a finite measurement resumes control from the held
    // output as if the faulty samples never happened.
    const double next = c.update(60.0, good);
    EXPECT_TRUE(std::isfinite(next));
    EXPECT_EQ(c.faults(), 3u);
}

TEST(Controller, NonFiniteConfHoldsLastOutput)
{
    Controller c(params(2.0, 0.5), memGoal(100.0, false));
    const double good = c.update(60.0, 5.0);
    EXPECT_DOUBLE_EQ(c.update(60.0, kNan), good);
    EXPECT_EQ(c.faults(), 1u);
}

TEST(Controller, FaultBeforeFirstUpdateStaysInClamp)
{
    // No last output to hold yet: the controller must still emit a
    // finite, in-clamp value, not NaN.
    ControllerParams p = params(2.0, 0.5);
    p.confMin = 10.0;
    p.confMax = 50.0;
    Controller c(p, memGoal(100.0, false));
    const double out = c.update(kNan, kNan);
    EXPECT_TRUE(std::isfinite(out));
    EXPECT_GE(out, 10.0);
    EXPECT_LE(out, 50.0);
    EXPECT_EQ(c.faults(), 1u);
}

TEST(Controller, OutputAlwaysFiniteUnderNaNStorm)
{
    ControllerParams p = params(2.0, 0.5);
    p.confMin = 0.0;
    p.confMax = 1000.0;
    Controller c(p, memGoal(100.0, true));
    double conf = 5.0;
    for (int i = 0; i < 200; ++i) {
        const double perf = (i % 3 == 0)   ? kNan
                            : (i % 3 == 1) ? kInf
                                           : 60.0 + i;
        conf = c.update(perf, conf);
        ASSERT_TRUE(std::isfinite(conf));
        ASSERT_GE(conf, p.confMin);
        ASSERT_LE(conf, p.confMax);
    }
    EXPECT_GT(c.faults(), 0u);
}

} // namespace
} // namespace smartconf
