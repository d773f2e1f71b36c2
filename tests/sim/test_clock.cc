/** @file Unit tests for tick/second conversion. */

#include <gtest/gtest.h>

#include "sim/clock.h"

namespace smartconf::sim {
namespace {

TEST(TickConverterTest, RoundTrip)
{
    TickConverter conv(10.0); // 100 ms ticks
    EXPECT_DOUBLE_EQ(conv.toSeconds(6000), 600.0);
    EXPECT_EQ(conv.toTicks(600.0), 6000);
    EXPECT_EQ(conv.toTicks(conv.toSeconds(1234)), 1234);
}

TEST(TickConverterTest, RoundsNearestTick)
{
    TickConverter conv(10.0);
    EXPECT_EQ(conv.toTicks(0.04), 0);
    EXPECT_EQ(conv.toTicks(0.06), 1);
}

} // namespace
} // namespace smartconf::sim
