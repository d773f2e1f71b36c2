/** @file FleetCoordinator: epoch-batched cluster-goal coordination. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fleet/coordinator.h"
#include "fleet/tenant.h"
#include "sim/rng.h"

namespace smartconf::fleet {
namespace {

Goal
clusterGoal(double value, bool super_hard = true)
{
    Goal g;
    g.metric = "fleet/test/0";
    g.value = value;
    g.hard = true;
    g.superHard = super_hard;
    return g;
}

std::vector<TenantNode>
makeNodes(std::size_t n, bool smart = true)
{
    const sim::Rng base(7);
    std::vector<TenantNode> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        nodes.emplace_back(static_cast<std::uint32_t>(i),
                           archetypes()[0], base, smart);
    return nodes;
}

TEST(FleetCoordinator, JoinSetsInteractionFactorToMembership)
{
    FleetCoordinator coord;
    auto nodes = makeNodes(4);
    const std::size_t c = coord.addCluster(clusterGoal(400.0), 4);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        coord.join(c, i, &nodes[i]);
    coord.runEpoch();
    for (auto &n : nodes)
        EXPECT_DOUBLE_EQ(n.controller()->params().interactionFactor,
                         4.0);
    EXPECT_DOUBLE_EQ(coord.maxInteractionFactor(), 4.0);
}

TEST(FleetCoordinator, RepeatedEpochsDoNotInflateN)
{
    // The membership heartbeat re-attaches every member every epoch;
    // with the pre-fix duplicate-attach bug N would grow by |cluster|
    // per epoch (12 epochs x 32 members = N 384 instead of 32),
    // silently dividing every controller's gain to nothing.
    FleetCoordinator coord;
    auto nodes = makeNodes(3);
    const std::size_t c = coord.addCluster(clusterGoal(300.0), 3);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        coord.join(c, i, &nodes[i]);
    for (int epoch = 0; epoch < 5; ++epoch)
        coord.runEpoch();
    EXPECT_EQ(coord.stats().attach_calls, 15u); // 3 members x 5 epochs
    EXPECT_EQ(coord.registry().interactionCount("fleet/test/0"), 3u);
    for (auto &n : nodes)
        EXPECT_DOUBLE_EQ(n.controller()->params().interactionFactor,
                         3.0);
}

TEST(FleetCoordinator, FanOutInstallsFrozenSiblingSum)
{
    FleetCoordinator coord;
    auto nodes = makeNodes(3);
    const std::size_t c = coord.addCluster(clusterGoal(300.0), 3);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        coord.join(c, i, &nodes[i]);
    coord.runEpoch();
    double aggregate = 0.0;
    for (const auto &n : nodes)
        aggregate += n.localMetric();
    for (auto &n : nodes)
        EXPECT_DOUBLE_EQ(n.metricView(), aggregate);
    EXPECT_EQ(coord.stats().fanouts, 3u);
}

TEST(FleetCoordinator, AggregateViolationsCounted)
{
    FleetCoordinator coord;
    auto nodes = makeNodes(2);
    // Warm-started nodes sit near base + alpha*default ~ 69 each; a
    // cluster goal of 10 is violated by the aggregate from epoch 0.
    const std::size_t c = coord.addCluster(clusterGoal(10.0), 2);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        coord.join(c, i, &nodes[i]);
    coord.runEpoch();
    coord.runEpoch();
    EXPECT_EQ(coord.stats().aggregate_violations, 2u);
    EXPECT_EQ(coord.stats().epochs, 2u);
}

TEST(FleetCoordinator, SetSuperHardFlipRebalancesMidRun)
{
    // Exercises the declareGoal refresh fix through the fleet surface:
    // flipping the cluster goal's superHard flag between epochs must
    // rebalance every attached member immediately, both directions.
    FleetCoordinator coord;
    auto nodes = makeNodes(4);
    const std::size_t c = coord.addCluster(clusterGoal(400.0), 4);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        coord.join(c, i, &nodes[i]);
    coord.runEpoch();
    ASSERT_DOUBLE_EQ(nodes[0].controller()->params().interactionFactor,
                     4.0);

    coord.setSuperHard(c, false);
    for (auto &n : nodes)
        EXPECT_DOUBLE_EQ(n.controller()->params().interactionFactor,
                         1.0);

    coord.setSuperHard(c, true);
    for (auto &n : nodes)
        EXPECT_DOUBLE_EQ(n.controller()->params().interactionFactor,
                         4.0);
}

TEST(FleetCoordinator, ClustersAreIndependent)
{
    FleetCoordinator coord;
    auto nodes = makeNodes(5);
    Goal g0 = clusterGoal(300.0);
    Goal g1 = clusterGoal(200.0);
    g1.metric = "fleet/test/1";
    const std::size_t c0 = coord.addCluster(g0, 3);
    const std::size_t c1 = coord.addCluster(g1, 2);
    for (std::size_t i = 0; i < 3; ++i)
        coord.join(c0, i, &nodes[i]);
    for (std::size_t i = 3; i < 5; ++i)
        coord.join(c1, i - 3, &nodes[i]);
    coord.runEpoch();
    EXPECT_DOUBLE_EQ(nodes[0].controller()->params().interactionFactor,
                     3.0);
    EXPECT_DOUBLE_EQ(nodes[4].controller()->params().interactionFactor,
                     2.0);
    EXPECT_EQ(coord.clusterCount(), 2u);
    EXPECT_EQ(coord.memberCount(c0), 3u);
    EXPECT_EQ(coord.memberCount(c1), 2u);
}

TEST(FleetCoordinator, JoinFillsDeclaredSlotsOnly)
{
    FleetCoordinator coord;
    auto nodes = makeNodes(3);
    auto pinned = makeNodes(1, false);
    const std::size_t c = coord.addCluster(clusterGoal(300.0), 2);
    EXPECT_THROW(coord.join(c, 2, &nodes[2]), std::out_of_range);
    EXPECT_THROW(coord.join(c, 0, &pinned[0]), std::invalid_argument);
    coord.join(c, 1, &nodes[1]);
    // Slot 0 was never joined.
    EXPECT_THROW(coord.runEpoch(), std::logic_error);
    coord.join(c, 0, &nodes[0]);
    coord.runEpoch();
    EXPECT_EQ(coord.registry().interactionCount("fleet/test/0"), 2u);
    EXPECT_FALSE(nodes[2].clustered());
}

} // namespace
} // namespace smartconf::fleet
