/** @file runFleet end-to-end invariants (single configuration). */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "fleet/fleet.h"

namespace smartconf::fleet {
namespace {

FleetParams
smallFleet()
{
    FleetParams p;
    p.tenants = 96; // 16 per archetype
    p.ticks = 60;
    p.epoch_ticks = 20;
    p.cluster_size = 8;
    p.seed = 11;
    return p;
}

TEST(FleetSim, RejectsDegenerateParams)
{
    FleetParams p = smallFleet();
    p.tenants = 0;
    EXPECT_THROW(runFleet(p), std::invalid_argument);
    p = smallFleet();
    p.epoch_ticks = 0;
    EXPECT_THROW(runFleet(p), std::invalid_argument);
    p = smallFleet();
    p.control_period = 0;
    EXPECT_THROW(runFleet(p), std::invalid_argument);

    // A cluster of one would put a lone tenant under a goal 10%
    // tighter than its own.
    for (const std::uint32_t size : {0u, 1u}) {
        p = smallFleet();
        p.cluster_size = size;
        EXPECT_THROW(runFleet(p), std::invalid_argument) << size;
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double draws : {-1.0, nan, inf}) {
        p = smallFleet();
        p.draws_per_tenant = draws;
        EXPECT_THROW(runFleet(p), std::invalid_argument) << draws;
    }
    for (const double headroom : {0.0, -0.5, nan, inf}) {
        p = smallFleet();
        p.cluster_headroom = headroom;
        EXPECT_THROW(runFleet(p), std::invalid_argument) << headroom;
    }
    for (const double theta : {-0.1, 1.0, nan}) {
        p = smallFleet();
        p.zipf_theta = theta;
        EXPECT_THROW(runFleet(p), std::invalid_argument) << theta;
    }

    // The boundaries themselves are valid.
    p = smallFleet();
    p.cluster_size = 2;
    p.draws_per_tenant = 0.0;
    p.zipf_theta = 0.0;
    EXPECT_NO_THROW(runFleet(p));
}

TEST(FleetSim, ClusterLayoutAndCoordinatorCost)
{
    // 96 tenants = 16 per archetype; the four capacity archetypes
    // contribute 48 memory tenants (6 clusters of 8) and 16 disk
    // tenants (2 clusters of 8).  Coordination cost is exact: every
    // member re-attaches once per epoch and receives one fan-out.
    const FleetResult r = runFleet(smallFleet());
    EXPECT_EQ(r.tenants, 96u);
    EXPECT_EQ(r.epochs, 3u);
    EXPECT_EQ(r.clusters, 8u);
    EXPECT_EQ(r.clustered_tenants, 64u);
    EXPECT_DOUBLE_EQ(r.max_interaction, 8.0);
    EXPECT_EQ(r.coord.epochs, 3u);
    EXPECT_EQ(r.coord.attach_calls, 64u * 3u);
    EXPECT_EQ(r.coord.fanouts, 64u * 3u);
    ASSERT_EQ(r.per_archetype.size(), 6u);
    std::uint64_t archetype_total = 0;
    for (const auto &row : r.per_archetype) {
        EXPECT_EQ(row.tenants, 16u);
        archetype_total += row.tenants;
    }
    EXPECT_EQ(archetype_total, r.tenants);
}

TEST(FleetSim, PartialTrailingClustersStillCoordinate)
{
    FleetParams p = smallFleet();
    p.tenants = 30; // 5 per archetype: memory 15 -> 1x8 + 7; disk 5
    const FleetResult r = runFleet(p);
    // 8-cluster + 7-trailing (memory) + 5-trailing (disk) = 3.
    EXPECT_EQ(r.clusters, 3u);
    EXPECT_EQ(r.clustered_tenants, 20u);
    EXPECT_DOUBLE_EQ(r.max_interaction, 8.0);
}

TEST(FleetSim, StaticBaselineHasNoCoordination)
{
    FleetParams p = smallFleet();
    p.smart = false;
    const FleetResult r = runFleet(p);
    EXPECT_EQ(r.clusters, 0u);
    EXPECT_EQ(r.clustered_tenants, 0u);
    EXPECT_EQ(r.coord.attach_calls, 0u);
    EXPECT_DOUBLE_EQ(r.max_interaction, 0.0);
    // Pinned confs: mean conf over the run is exactly the default.
    EXPECT_NEAR(r.mean_conf_rel, 1.0, 1e-12);
}

TEST(FleetSim, SmartFleetBeatsStaticDefaultsOnViolations)
{
    // The headline claim at bench scale: under Zipf-skewed traffic the
    // controllers keep violation rates below the pinned patch-default
    // baseline while running *higher* average configurations (the
    // throughput side of the paper's trade-off).
    FleetParams p;
    p.tenants = 1000;
    p.seed = 1;
    const FleetResult smart = runFleet(p);
    p.smart = false;
    const FleetResult pinned = runFleet(p);
    EXPECT_LT(smart.violation_rate_mean, pinned.violation_rate_mean);
    EXPECT_GT(smart.mean_conf_rel, 1.0);
    // Coordinated capacity clusters keep their aggregate promise in
    // steady state (transients during the first adaptation epochs are
    // allowed).
    EXPECT_LE(smart.coord.aggregate_violations,
              smart.coord.epochs * smart.clusters / 4);
}

TEST(FleetSim, ConvergenceWithinRun)
{
    const FleetResult r = runFleet(smallFleet());
    EXPECT_GE(r.convergence_p50_ticks, 1.0);
    EXPECT_LE(r.convergence_p50_ticks,
              static_cast<double>(r.ticks));
    EXPECT_GE(r.convergence_p99_ticks, r.convergence_p50_ticks);
}

TEST(FleetSim, SeedChangesResults)
{
    FleetParams p = smallFleet();
    const FleetResult a = runFleet(p);
    p.seed = 12;
    const FleetResult b = runFleet(p);
    EXPECT_NE(a.checksum, b.checksum);
}

} // namespace
} // namespace smartconf::fleet
