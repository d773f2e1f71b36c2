/** @file Tenant archetypes and single-node tenant dynamics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "fleet/tenant.h"
#include "sim/rng.h"

namespace smartconf::fleet {
namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Drive one node through tickEpoch() and a twin through the reference
 * tick() + controlTick() loop over the same epochs, loads and cluster
 * views; they must agree bit for bit after every epoch.
 */
void
expectEpochMatchesTickLoop(std::size_t arch, bool smart, bool clustered,
                           sim::Tick ticks, sim::Tick epoch_ticks,
                           sim::Tick control_period)
{
    const sim::Rng base(17);
    TenantNode fast(5, archetypes()[arch], base, smart);
    TenantNode ref(5, archetypes()[arch], base, smart);
    if (clustered) {
        Goal g;
        g.metric = "fleet/test/0";
        g.value = 800.0;
        g.hard = true;
        g.superHard = true;
        fast.bindCluster(g);
        ref.bindCluster(g);
    }
    std::vector<double> diurnal(static_cast<std::size_t>(epoch_ticks));
    for (sim::Tick e0 = 0; e0 < ticks; e0 += epoch_ticks) {
        const sim::Tick e1 = std::min(e0 + epoch_ticks, ticks);
        const double base_load = 2.0 + static_cast<double>(e0 % 11);
        for (sim::Tick t = e0; t < e1; ++t)
            diurnal[static_cast<std::size_t>(t - e0)] =
                0.25 + 0.003 * static_cast<double>(t);
        if (clustered) {
            const double others = 600.0 + static_cast<double>(e0);
            fast.setClusterView(others);
            ref.setClusterView(others);
        }

        fast.tickEpoch(e0, e1, base_load, diurnal.data(),
                       control_period);
        for (sim::Tick t = e0; t < e1; ++t) {
            ref.tick(t, base_load *
                            diurnal[static_cast<std::size_t>(t - e0)]);
            if (ref.smart() && (t + 1) % control_period == 0)
                ref.controlTick();
        }
        ASSERT_EQ(fast.foldChecksum(1), ref.foldChecksum(1))
            << "epoch starting at tick " << e0;
    }
    EXPECT_TRUE(sameBits(fast.localMetric(), ref.localMetric()));
    EXPECT_TRUE(sameBits(fast.conf(), ref.conf()));
    EXPECT_EQ(fast.stats().ticks, static_cast<std::uint64_t>(ticks));
    EXPECT_EQ(fast.stats().ticks, ref.stats().ticks);
    EXPECT_EQ(fast.stats().violations, ref.stats().violations);
    EXPECT_EQ(fast.stats().control_updates, ref.stats().control_updates);
    EXPECT_EQ(fast.stats().last_unsettled, ref.stats().last_unsettled);
    EXPECT_TRUE(sameBits(fast.stats().conf_sum, ref.stats().conf_sum));
}

TEST(FleetTenant, TickEpochMatchesTickLoop)
{
    // Odd epoch length: the spare normal of each epoch's batch carries
    // into the next epoch.  7 is not a multiple of the control period,
    // and 23 = 3 x 7 + 2 leaves a short last epoch.
    expectEpochMatchesTickLoop(1, true, false, 23, 7, 4);
    // The default fleet shape.
    expectEpochMatchesTickLoop(0, true, true, 240, 20, 4);
    // Epochs longer than the 64-entry noise buffer, with an odd chunk
    // tail and a short last epoch.
    expectEpochMatchesTickLoop(3, true, true, 400, 150, 7);
    // Static baseline: no controller updates at all.
    expectEpochMatchesTickLoop(4, false, false, 45, 13, 4);
}

TEST(FleetTenant, ArchetypesDeriveFromScenarioCatalog)
{
    const auto &archs = archetypes();
    ASSERT_EQ(archs.size(), 6u);
    EXPECT_EQ(archs[0].scenario_id, "CA6059");
    EXPECT_EQ(archs[5].scenario_id, "MR2820");
    for (const auto &a : archs) {
        EXPECT_FALSE(a.conf_name.empty());
        EXPECT_FALSE(a.metric.empty());
        // Fleet SLOs are contractual: every goal runs hard.
        EXPECT_TRUE(a.hard);
        EXPECT_DOUBLE_EQ(a.goal_value, 100.0);
        EXPECT_GT(a.conf_default, 0.0);
        EXPECT_DOUBLE_EQ(a.conf_max, 4.0 * a.conf_default);
        // The patched default contributes the same normalized metric
        // share for every archetype.
        EXPECT_NEAR(a.alpha * a.conf_default, 55.0, 1e-9);
        EXPECT_GT(a.pole, 0.0);
        EXPECT_LT(a.pole, 1.0);
    }
    // Capacity classes (metrics that sum across tenants) cluster;
    // latency classes stay local.
    EXPECT_TRUE(archs[0].capacity_class);  // CA6059 memory
    EXPECT_FALSE(archs[1].capacity_class); // HB2149 latency
    EXPECT_TRUE(archs[2].capacity_class);  // HB3813 memory
    EXPECT_TRUE(archs[3].capacity_class);  // HB6728 memory
    EXPECT_FALSE(archs[4].capacity_class); // HD4995 latency
    EXPECT_TRUE(archs[5].capacity_class);  // MR2820 disk
}

TEST(FleetTenant, SameSeedSameTrajectory)
{
    const sim::Rng base(42);
    TenantNode a(3, archetypes()[1], base, true);
    TenantNode b(3, archetypes()[1], base, true);
    for (sim::Tick t = 0; t < 50; ++t) {
        a.tick(t, 0.5);
        b.tick(t, 0.5);
        if ((t + 1) % 4 == 0) {
            a.controlTick();
            b.controlTick();
        }
        ASSERT_DOUBLE_EQ(a.localMetric(), b.localMetric());
        ASSERT_DOUBLE_EQ(a.conf(), b.conf());
    }
    EXPECT_EQ(a.foldChecksum(1), b.foldChecksum(1));
}

TEST(FleetTenant, DistinctIdsGetDistinctStreams)
{
    const sim::Rng base(42);
    TenantNode a(1, archetypes()[1], base, true);
    TenantNode b(2, archetypes()[1], base, true);
    a.tick(0, 0.5);
    b.tick(0, 0.5);
    EXPECT_NE(a.localMetric(), b.localMetric());
}

TEST(FleetTenant, StaticNodeKeepsDefaultConf)
{
    const sim::Rng base(9);
    TenantNode n(0, archetypes()[0], base, false);
    EXPECT_FALSE(n.smart());
    EXPECT_EQ(n.controller(), nullptr);
    for (sim::Tick t = 0; t < 30; ++t) {
        n.tick(t, 1.0);
        n.controlTick(); // no-op without a controller
    }
    EXPECT_DOUBLE_EQ(n.conf(), archetypes()[0].conf_default);
    EXPECT_EQ(n.stats().control_updates, 0u);
}

TEST(FleetTenant, ControllerTracksVirtualGoalUnderLoad)
{
    // A smart tenant under sustained heavy load must pull its conf
    // down (the plant warm-starts at the zero-load equilibrium, so
    // added load pushes the metric above the set-point) and end the
    // run with the metric near the virtual goal rather than above the
    // goal.
    const sim::Rng base(5);
    const TenantArchetype &arch = archetypes()[0];
    TenantNode n(0, arch, base, true);
    for (sim::Tick t = 0; t < 400; ++t) {
        n.tick(t, 500.0); // Zipf-head traffic, deep in the load bend
        if ((t + 1) % 4 == 0)
            n.controlTick();
    }
    EXPECT_LT(n.conf(), arch.conf_default);
    EXPECT_LT(n.localMetric(), arch.goal_value + 3.0 * arch.noise);
    EXPECT_GT(n.localMetric(), 0.5 * arch.goal_value);
    // Steady-state violations stay rare relative to the run length.
    EXPECT_LT(static_cast<double>(n.stats().violations) / 400.0, 0.2);
}

TEST(FleetTenant, ClusterBindingRetargetsViewAndGoal)
{
    const sim::Rng base(5);
    TenantNode n(0, archetypes()[0], base, true);
    Goal g;
    g.metric = "fleet/mem/0";
    g.value = 900.0;
    g.hard = true;
    g.superHard = true;
    n.bindCluster(g);
    EXPECT_TRUE(n.clustered());
    EXPECT_EQ(n.controller()->goal().metric, "fleet/mem/0");
    n.setClusterView(800.0);
    EXPECT_DOUBLE_EQ(n.metricView(), 800.0 + n.localMetric());
}

TEST(FleetTenant, StaticNodeIgnoresClusterBinding)
{
    const sim::Rng base(5);
    TenantNode n(0, archetypes()[0], base, false);
    Goal g;
    g.metric = "fleet/mem/0";
    g.value = 900.0;
    n.bindCluster(g);
    EXPECT_FALSE(n.clustered());
    EXPECT_DOUBLE_EQ(n.metricView(), n.localMetric());
}

} // namespace
} // namespace smartconf::fleet
