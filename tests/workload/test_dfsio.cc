/** @file Unit tests for the TestDFSIO-like generator. */

#include <gtest/gtest.h>

#include <vector>

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
    std::vector<DfsRequest> reqs;
    for (int t = 0; t < ticks; ++t) {
        gen.tickInto(t, reqs);
        for (const auto &req : reqs)
            writes += req.type == DfsRequest::Type::WriteFile ? 1 : 0;
    }
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
    std::vector<DfsRequest> reqs;
    for (int t = 0; t < 1000; ++t) {
        gen.tickInto(t, reqs);
        for (const auto &req : reqs) {
            if (req.type == DfsRequest::Type::ContentSummary) {
                ++dus;
                EXPECT_EQ(req.file_count, 5555u);
            }
        }
    }
    EXPECT_EQ(dus, 10);
}

TEST(Dfsio, FirstTickIssuesDu)
{
    DfsioParams p;
    p.du_period = 500;
    DfsioGenerator gen(p, sim::Rng(4));
    bool found = false;
    std::vector<DfsRequest> reqs;
    gen.tickInto(0, reqs);
    for (const auto &req : reqs)
        found |= req.type == DfsRequest::Type::ContentSummary;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace smartconf::workload
