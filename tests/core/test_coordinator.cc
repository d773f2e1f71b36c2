/** @file Unit tests for goal coordination (paper Sec. 5.4). */

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/coordinator.h"

namespace smartconf {
namespace {

Goal
goal(const std::string &metric, bool super_hard)
{
    Goal g;
    g.metric = metric;
    g.value = 500.0;
    g.hard = true;
    g.superHard = super_hard;
    return g;
}

ControllerParams
params()
{
    ControllerParams p;
    p.alpha = 1.0;
    p.confMax = 1e9;
    return p;
}

TEST(Coordinator, DeclareAndLookup)
{
    GoalCoordinator c;
    EXPECT_FALSE(c.hasGoal("mem"));
    c.declareGoal(goal("mem", false));
    EXPECT_TRUE(c.hasGoal("mem"));
    EXPECT_DOUBLE_EQ(c.goalFor("mem").value, 500.0);
    EXPECT_THROW(c.goalFor("nope"), std::out_of_range);
}

TEST(Coordinator, SuperHardSplitsInteractionFactor)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));

    coord.attach("mem", &a);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
    coord.attach("mem", &b);
    // Both controllers now split the error evenly (N = 2).
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 2.0);
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
}

TEST(Coordinator, NonSuperHardKeepsFactorOne)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", false));
    Controller a(params(), goal("mem", false));
    Controller b(params(), goal("mem", false));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 1.0);
}

TEST(Coordinator, DetachRestoresFactor)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    coord.detach("mem", &b);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
    EXPECT_EQ(coord.interactionCount("mem"), 1u);
}

TEST(Coordinator, UpdateGoalFansOutToControllers)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", false));
    Controller a(params(), goal("mem", false));
    coord.attach("mem", &a);
    coord.updateGoalValue("mem", 300.0);
    EXPECT_DOUBLE_EQ(a.goal().value, 300.0);
    EXPECT_DOUBLE_EQ(coord.goalFor("mem").value, 300.0);
}

TEST(Coordinator, UpdateUnknownGoalThrows)
{
    GoalCoordinator coord;
    EXPECT_THROW(coord.updateGoalValue("nope", 1.0), std::out_of_range);
}

TEST(Coordinator, LateRegistrationRebalances)
{
    // PerfConfs are added as software evolves (Sec. 5.4); a third
    // configuration attaching later rebalances everyone to N = 3.
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    Controller c(params(), goal("mem", true));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    coord.attach("mem", &c);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 3.0);
    EXPECT_DOUBLE_EQ(c.params().interactionFactor, 3.0);
}

TEST(Coordinator, DuplicateAttachIsIdempotent)
{
    // Regression: attach() used to push_back unconditionally, so a
    // controller registered twice counted twice in interactionCount()
    // and inflated N in the (1-p)/(N*alpha) error split.
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));

    coord.attach("mem", &a);
    coord.attach("mem", &a); // re-registration must be a no-op
    EXPECT_EQ(coord.interactionCount("mem"), 1u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);

    coord.attach("mem", &b);
    coord.attach("mem", &a); // still a no-op after a sibling joined
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 2.0);

    // One detach fully removes the controller (it was stored once).
    coord.detach("mem", &a);
    EXPECT_EQ(coord.interactionCount("mem"), 1u);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 1.0);
}

TEST(Coordinator, AttachAllIsIdempotentAndRefreshesOnce)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    Controller c(params(), goal("mem", true));
    const std::vector<Controller *> ab = {&a, &b};

    coord.attachAll("mem", ab);
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 2.0);

    // Heartbeat steady state: the registry holds exactly these
    // controllers in this order, so the call must not refresh — a
    // factor changed behind the registry's back survives it.
    a.setInteractionFactor(7.0);
    coord.attachAll("mem", ab);
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 7.0);

    // New and already-attached controllers mixed, out of order and
    // with a duplicate: only c is added, and the refresh writes the
    // final N to every attached controller.
    const std::vector<Controller *> mixed = {&b, &c, &a, &c};
    coord.attachAll("mem", mixed);
    EXPECT_EQ(coord.interactionCount("mem"), 3u);
    for (const Controller *ctl : {&a, &b, &c})
        EXPECT_DOUBLE_EQ(ctl->params().interactionFactor, 3.0);

    // Only already-attached controllers, not the registered list:
    // nothing is added, so nothing is refreshed.
    a.setInteractionFactor(7.0);
    coord.attachAll("mem", ab);
    EXPECT_EQ(coord.interactionCount("mem"), 3u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 7.0);

    // Same end state as attaching one by one.
    GoalCoordinator serial;
    serial.declareGoal(goal("mem", true));
    Controller x(params(), goal("mem", true));
    Controller y(params(), goal("mem", true));
    Controller z(params(), goal("mem", true));
    for (Controller *ctl : {&y, &z, &x, &z})
        serial.attach("mem", ctl);
    EXPECT_EQ(serial.interactionCount("mem"), 3u);
    for (const Controller *ctl : {&x, &y, &z})
        EXPECT_DOUBLE_EQ(ctl->params().interactionFactor, 3.0);
}

TEST(Coordinator, AttachAllEmptyRangeIsNoOp)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    coord.attachAll("mem", {});
    EXPECT_EQ(coord.interactionCount("mem"), 0u);

    Controller a(params(), goal("mem", true));
    coord.attach("mem", &a);
    a.setInteractionFactor(5.0);
    coord.attachAll("mem", {});
    EXPECT_EQ(coord.interactionCount("mem"), 1u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 5.0);
}

TEST(Coordinator, NonFiniteGoalValuesRejected)
{
    GoalCoordinator coord;
    Goal bad = goal("mem", true);
    bad.value = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(coord.declareGoal(bad), std::invalid_argument);
    EXPECT_FALSE(coord.hasGoal("mem")); // nothing stored

    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    coord.attach("mem", &a);
    bad.value = std::numeric_limits<double>::infinity();
    EXPECT_THROW(coord.declareGoal(bad), std::invalid_argument);
    EXPECT_THROW(coord.updateGoalValue(
                     "mem", std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(coord.updateGoalValue(
                     "mem", -std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_DOUBLE_EQ(coord.goalFor("mem").value, 500.0);
    EXPECT_DOUBLE_EQ(a.goal().value, 500.0);
}

TEST(Coordinator, RedeclareSuperHardOnRefreshesAttached)
{
    // Regression: declareGoal() used to just overwrite the stored
    // goal, so controllers attached while the goal was ordinary kept
    // interaction factor 1 after it was re-declared super-hard.
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", false));
    Controller a(params(), goal("mem", false));
    Controller b(params(), goal("mem", false));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);

    coord.declareGoal(goal("mem", true)); // flip super-hard ON
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 2.0);
}

TEST(Coordinator, RedeclareSuperHardOffResetsFactors)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);

    coord.declareGoal(goal("mem", false)); // flip super-hard OFF
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 1.0);
}

TEST(Coordinator, AttachBeforeDeclareGoal)
{
    // Attachment order must not matter: controllers registered before
    // the goal exists are rebalanced once it is declared super-hard.
    GoalCoordinator coord;
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);

    coord.declareGoal(goal("mem", true));
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 2.0);
}

TEST(Coordinator, DetachNeverAttachedIsNoOp)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller stranger(params(), goal("mem", true));
    coord.attach("mem", &a);

    coord.detach("mem", &stranger);   // never attached: no-op
    coord.detach("disk", &stranger);  // metric never seen: no-op
    EXPECT_EQ(coord.interactionCount("mem"), 1u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
}

TEST(Coordinator, SuperHardFlipMidRunKeepsSplitConsistent)
{
    // A full mid-run episode: controllers run under N = 3, the goal is
    // re-declared ordinary (everyone back to N = 1), then super-hard
    // again (back to N = 3) — with membership changing in between.
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("mem", true));
    Controller c(params(), goal("mem", true));
    coord.attach("mem", &a);
    coord.attach("mem", &b);
    coord.attach("mem", &c);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 3.0);

    coord.declareGoal(goal("mem", false));
    EXPECT_DOUBLE_EQ(c.params().interactionFactor, 1.0);

    coord.detach("mem", &b); // churn while the goal is ordinary
    coord.declareGoal(goal("mem", true));
    EXPECT_EQ(coord.interactionCount("mem"), 2u);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 2.0);
    EXPECT_DOUBLE_EQ(c.params().interactionFactor, 2.0);
}

TEST(Coordinator, IndependentMetricsDoNotInteract)
{
    GoalCoordinator coord;
    coord.declareGoal(goal("mem", true));
    coord.declareGoal(goal("disk", true));
    Controller a(params(), goal("mem", true));
    Controller b(params(), goal("disk", true));
    coord.attach("mem", &a);
    coord.attach("disk", &b);
    EXPECT_DOUBLE_EQ(a.params().interactionFactor, 1.0);
    EXPECT_DOUBLE_EQ(b.params().interactionFactor, 1.0);
}

TEST(Coordinator, HeartbeatAtFleetScaleKeepsEveryCount)
{
    // The fleet's registry shape: thousands of super-hard cluster
    // metrics whose names share a long prefix, each re-asserted by one
    // attachAll per epoch.
    constexpr std::size_t kMetrics = 3000;
    constexpr std::size_t kPerMetric = 4;
    GoalCoordinator coord;
    std::vector<std::string> metrics;
    std::deque<Controller> controllers;
    std::vector<std::vector<Controller *>> members(kMetrics);
    for (std::size_t m = 0; m < kMetrics; ++m) {
        metrics.push_back("fleet/memory_consumption_max/" +
                          std::to_string(m));
        coord.declareGoal(goal(metrics[m], true));
        for (std::size_t k = 0; k < kPerMetric; ++k) {
            controllers.emplace_back(params(), goal(metrics[m], true));
            members[m].push_back(&controllers.back());
        }
    }

    // Metrics other than `except` whose N is not kPerMetric.
    const auto countsOff = [&](std::size_t except) {
        std::size_t off = 0;
        for (std::size_t m = 0; m < kMetrics; ++m)
            if (m != except &&
                coord.interactionCount(metrics[m]) != kPerMetric)
                ++off;
        return off;
    };
    for (int epoch = 0; epoch < 3; ++epoch)
        for (std::size_t m = 0; m < kMetrics; ++m)
            coord.attachAll(metrics[m], members[m]);
    EXPECT_EQ(countsOff(kMetrics), 0u); // no metric excepted
    std::size_t factors_off = 0;
    for (const Controller &c : controllers)
        if (c.params().interactionFactor != 4.0)
            ++factors_off;
    EXPECT_EQ(factors_off, 0u);

    // One detach rebalances its own metric and no other.
    const std::size_t hit = 1234;
    coord.detach(metrics[hit], members[hit][2]);
    EXPECT_EQ(coord.interactionCount(metrics[hit]), 3u);
    EXPECT_DOUBLE_EQ(members[hit][0]->params().interactionFactor, 3.0);
    EXPECT_DOUBLE_EQ(members[hit + 1][0]->params().interactionFactor,
                     4.0);
    EXPECT_EQ(countsOff(hit), 0u);

    // Unknown metrics, one a near miss of the registered names, have
    // no controllers.
    EXPECT_EQ(coord.interactionCount("fleet/memory_consumption_max/3000"),
              0u);
    EXPECT_EQ(coord.interactionCount("no-such-metric"), 0u);
}

} // namespace
} // namespace smartconf
