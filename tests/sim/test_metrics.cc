/** @file Unit tests for the time-series recorder. */

#include <gtest/gtest.h>

#include "sim/metrics.h"

namespace smartconf::sim {
namespace {

TEST(TimeSeriesTest, RecordAndQuery)
{
    TimeSeries ts("mem");
    EXPECT_TRUE(ts.empty());
    ts.record(0, 10.0);
    ts.record(1, 30.0);
    ts.record(2, 20.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.max(), 30.0);
    EXPECT_DOUBLE_EQ(ts.points().back().value, 20.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 20.0);
}

TEST(TimeSeriesTest, DownsampleKeepsPeaks)
{
    TimeSeries ts;
    for (Tick t = 0; t < 1000; ++t)
        ts.record(t, t == 500 ? 999.0 : 1.0);
    const auto pts = ts.downsampleMax(10);
    EXPECT_LE(pts.size(), 10u);
    double best = 0.0;
    for (const auto &p : pts)
        best = std::max(best, p.value);
    EXPECT_DOUBLE_EQ(best, 999.0) << "peak must survive downsampling";
}

TEST(TimeSeriesTest, DownsampleNoOpWhenSmall)
{
    TimeSeries ts;
    ts.record(0, 1.0);
    ts.record(1, 2.0);
    EXPECT_EQ(ts.downsampleMax(10).size(), 2u);
}

TEST(TimeSeriesTest, DownsampleZeroBucketsIsEmpty)
{
    TimeSeries ts;
    ts.record(0, 1.0);
    ts.record(1, 2.0);
    EXPECT_TRUE(ts.downsampleMax(0).empty())
        << "'at most 0 points' means none, not a crash";
}

TEST(TimeSeriesTest, DownsampleBucketsAtLeastSizeIsIdentity)
{
    TimeSeries ts;
    ts.record(0, 1.0);
    ts.record(3, 4.0);
    ts.record(7, 2.0);
    for (const std::size_t buckets : {3u, 4u, 100u}) {
        const auto pts = ts.downsampleMax(buckets);
        ASSERT_EQ(pts.size(), 3u);
        EXPECT_EQ(pts[0].tick, 0);
        EXPECT_DOUBLE_EQ(pts[1].value, 4.0);
        EXPECT_EQ(pts[2].tick, 7);
    }
}

TEST(TimeSeriesTest, DownsampleSinglePointSurvives)
{
    TimeSeries ts;
    ts.record(42, 9.0);
    const auto pts = ts.downsampleMax(5);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].tick, 42);
    EXPECT_DOUBLE_EQ(pts[0].value, 9.0);
    EXPECT_TRUE(ts.downsampleMax(0).empty());
}

TEST(TimeSeriesTest, DownsampleEmptySeries)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.downsampleMax(0).empty());
    EXPECT_TRUE(ts.downsampleMax(10).empty());
}

} // namespace
} // namespace smartconf::sim
