/** @file Unit tests for phase scheduling and the diurnal curve. */

#include <gtest/gtest.h>

#include "workload/phases.h"

namespace smartconf::workload {
namespace {

TEST(Phases, SinglePhaseAlwaysActive)
{
    PhasedSchedule<int> s(7);
    EXPECT_EQ(s.at(0), 7);
    EXPECT_EQ(s.at(1000000), 7);
    EXPECT_EQ(s.phaseCount(), 1u);
}

TEST(Phases, TwoPhaseSwitch)
{
    PhasedSchedule<double> s(1.0);
    s.addPhase(2000, 2.0); // HB3813: request size doubles at 200 s
    EXPECT_DOUBLE_EQ(s.at(0), 1.0);
    EXPECT_DOUBLE_EQ(s.at(1999), 1.0);
    EXPECT_DOUBLE_EQ(s.at(2000), 2.0);
    EXPECT_DOUBLE_EQ(s.at(7000), 2.0);
}

TEST(Phases, PhaseIndexAndBoundary)
{
    PhasedSchedule<int> s(0);
    s.addPhase(100, 1);
    s.addPhase(200, 2);
    EXPECT_EQ(s.phaseIndex(50), 0u);
    EXPECT_EQ(s.phaseIndex(150), 1u);
    EXPECT_EQ(s.phaseIndex(500), 2u);
    EXPECT_TRUE(s.boundaryAt(100));
    EXPECT_TRUE(s.boundaryAt(200));
    EXPECT_FALSE(s.boundaryAt(150));
    EXPECT_FALSE(s.boundaryAt(0));
}

TEST(Phases, PhaseStart)
{
    PhasedSchedule<int> s(0);
    s.addPhase(123, 1);
    EXPECT_EQ(s.phaseStart(0), 0);
    EXPECT_EQ(s.phaseStart(1), 123);
}

TEST(Phases, StructuredParams)
{
    struct P
    {
        double rate;
        double size;
    };
    PhasedSchedule<P> s({10.0, 1.0});
    s.addPhase(50, {20.0, 2.0});
    EXPECT_DOUBLE_EQ(s.at(49).rate, 10.0);
    EXPECT_DOUBLE_EQ(s.at(50).size, 2.0);
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

} // namespace
} // namespace smartconf::workload
