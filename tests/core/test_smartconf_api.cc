/** @file End-to-end tests of the SmartConf/SmartConfI API (Fig. 3/4). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/smartconf.h"

namespace smartconf {
namespace {

ProfileSummary
summary(double alpha, double lambda = 0.1, double pole = 0.0)
{
    ProfileSummary s;
    s.alpha = alpha;
    s.lambda = lambda;
    s.pole = pole;
    s.delta = 1.0;
    s.settings = 4;
    s.samples = 40;
    return s;
}

void
setupMem(SmartConfRuntime &rt, bool hard = true, double goal = 500.0)
{
    rt.declareConf({"q", "mem", 0.0, 0.0, 10000.0});
    Goal g;
    g.metric = "mem";
    g.value = goal;
    g.hard = hard;
    rt.declareGoal(g);
}

TEST(SmartConfApi, UnmanagedPassesInitialThrough)
{
    SmartConfRuntime rt;
    rt.declareConf({"q", "mem", 42.0, 0.0, 10000.0});
    SmartConf sc(rt, "q");
    EXPECT_FALSE(sc.managed());
    sc.setPerf(100.0);
    EXPECT_EQ(sc.getConf(), 42);
}

TEST(SmartConfApi, UnknownNameThrows)
{
    SmartConfRuntime rt;
    EXPECT_THROW(SmartConf(rt, "nope"), std::out_of_range);
}

TEST(SmartConfApi, ControllerDrivesTowardGoal)
{
    SmartConfRuntime rt;
    setupMem(rt, /*hard=*/false);
    rt.installProfile("q", summary(1.0));
    SmartConf sc(rt, "q");
    ASSERT_TRUE(sc.managed());

    // Plant: mem = conf (alpha exactly 1).
    double conf = sc.currentValue();
    for (int i = 0; i < 50; ++i) {
        sc.setPerf(conf);
        conf = sc.getConfReal();
    }
    EXPECT_NEAR(conf, 500.0, 1.0);
}

TEST(SmartConfApi, HardGoalStopsAtVirtualGoal)
{
    SmartConfRuntime rt;
    setupMem(rt, /*hard=*/true);
    rt.installProfile("q", summary(1.0, 0.1));
    SmartConf sc(rt, "q");
    double conf = sc.currentValue();
    for (int i = 0; i < 50; ++i) {
        sc.setPerf(conf);
        conf = sc.getConfReal();
    }
    EXPECT_NEAR(conf, 450.0, 1.0); // (1 - 0.1) * 500
}

TEST(SmartConfApi, GetConfRounds)
{
    SmartConfRuntime rt;
    setupMem(rt, false, 100.5);
    rt.installProfile("q", summary(1.0));
    SmartConf sc(rt, "q");
    sc.setPerf(100.0);
    const double real = sc.currentValue();
    sc.setPerf(real);
    const int integer = sc.getConf();
    EXPECT_NEAR(static_cast<double>(integer), sc.currentValue(), 0.51);
}

TEST(SmartConfApi, SetGoalTakesEffectAtRunTime)
{
    SmartConfRuntime rt;
    setupMem(rt, false);
    rt.installProfile("q", summary(1.0));
    SmartConf sc(rt, "q");
    double conf = 0.0;
    for (int i = 0; i < 30; ++i) {
        sc.setPerf(conf);
        conf = sc.getConfReal();
    }
    ASSERT_NEAR(conf, 500.0, 1.0);
    sc.setGoal(200.0); // user tightens the constraint (Sec. 4.3)
    for (int i = 0; i < 30; ++i) {
        sc.setPerf(conf);
        conf = sc.getConfReal();
    }
    EXPECT_NEAR(conf, 200.0, 1.0);
}

TEST(SmartConfApi, NonFiniteGoalIsRejected)
{
    // setGoal(NaN) and a goal-file value "nan" (std::stod accepts it)
    // used to reach the controller and make it emit NaN.
    SmartConfRuntime rt;
    setupMem(rt, true);
    rt.installProfile("q", summary(1.0));
    SmartConf sc(rt, "q");
    EXPECT_THROW(sc.setGoal(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(rt.loadUserConfText("mem = nan\n"),
                 std::invalid_argument);
    EXPECT_THROW(rt.loadUserConfText("mem = inf\n"),
                 std::invalid_argument);
    sc.setPerf(100.0);
    const double conf = sc.getConfReal();
    EXPECT_TRUE(std::isfinite(conf));
}

TEST(SmartConfApi, IndirectControlsDeputy)
{
    SmartConfRuntime rt;
    setupMem(rt, true);
    rt.installProfile("q", summary(1.0, 0.1));
    SmartConfI sc(rt, "q");

    // Plant: deputy (queue size) follows the threshold lazily; memory
    // equals deputy plus a 100 MB floor.
    double deputy = 0.0;
    double threshold = sc.currentValue();
    for (int i = 0; i < 100; ++i) {
        deputy = deputy + 0.5 * (threshold - deputy);
        sc.setPerf(100.0 + deputy, deputy);
        threshold = sc.getConfReal();
    }
    // Memory converges to the virtual goal 450 -> deputy ~350.
    EXPECT_NEAR(100.0 + deputy, 450.0, 2.0);
}

TEST(SmartConfApi, IndirectWithCustomTransducer)
{
    SmartConfRuntime rt;
    rt.declareConf({"limit", "lat", 0.0, 0.0, 1e9});
    Goal g;
    g.metric = "lat";
    g.value = 100.0;
    rt.declareGoal(g);
    ControllerOverrides ov;
    ov.deputyMax = 1000.0;
    rt.setOverrides("limit", ov);
    rt.installProfile("limit", summary(1.0, 0.0));
    // Configuration = deputy * 20000 (HD4995's files-per-tick rate).
    SmartConfI sc(rt, "limit",
                  std::make_unique<LinearTransducer>(20000.0));

    double deputy = 10.0;
    sc.setPerf(10.0, deputy);
    const double conf = sc.getConfReal();
    // desired deputy = 10 + (100 - 10) = 100 -> conf = 2,000,000.
    EXPECT_NEAR(conf, 2000000.0, 1.0);
}

TEST(SmartConfApi, ProfilingModeRecordsThroughSetPerf)
{
    SmartConfRuntime rt;
    setupMem(rt);
    rt.setProfiling(true);
    SmartConf sc(rt, "q");
    for (double setting : {40.0, 80.0, 120.0, 160.0}) {
        rt.setCurrentValue("q", setting);
        for (int i = 0; i < 10; ++i)
            sc.setPerf(200.0 + setting + i);
    }
    EXPECT_EQ(rt.profilerFor("q").sampleCount(), 40u);
    const ProfileSummary s = rt.finishProfiling("q");
    EXPECT_NEAR(s.alpha, 1.0, 0.15);
}

TEST(SmartConfApi, UnreachableGoalRaisesAlert)
{
    SmartConfRuntime rt;
    rt.declareConf({"q", "mem", 0.0, 0.0, 50.0}); // tiny clamp
    Goal g;
    g.metric = "mem";
    g.value = 10000.0; // unreachable with conf <= 50 and alpha 1
    rt.declareGoal(g);
    rt.installProfile("q", summary(1.0));

    int alerts = 0;
    std::string alerted_conf;
    rt.setAlertHandler([&](const std::string &conf,
                           const std::string &msg) {
        ++alerts;
        alerted_conf = conf;
        EXPECT_FALSE(msg.empty());
    });

    SmartConf sc(rt, "q");
    double perf = 0.0;
    for (int i = 0; i < 10; ++i) {
        sc.setPerf(perf);
        perf = sc.getConfReal(); // pinned at 50, goal never met
    }
    EXPECT_EQ(alerts, 1) << "alert must fire exactly once per episode";
    EXPECT_EQ(alerted_conf, "q");
    EXPECT_EQ(rt.alertCount(), 1);
}

/**
 * A soft goal of 10000 on a configuration clamped to [0, 50], profiled
 * with alpha 1 and pole 0: a reading of 0 pins the configuration at 50
 * (saturated), a reading of exactly 10000 is a zero step that ends the
 * episode.
 */
void
setupUnreachable(SmartConfRuntime &rt, std::vector<std::string> &msgs)
{
    rt.declareConf({"q", "mem", 0.0, 0.0, 50.0});
    Goal g;
    g.metric = "mem";
    g.value = 10000.0;
    g.hard = false;
    rt.declareGoal(g);
    rt.installProfile("q", summary(1.0, 0.0, 0.0));
    rt.setAlertHandler([&msgs](const std::string &conf,
                               const std::string &msg) {
        EXPECT_EQ(conf, "q");
        msgs.push_back(msg);
    });
}

TEST(SmartConfApi, LongSaturationAlertsOncePerEpisode)
{
    SmartConfRuntime rt;
    std::vector<std::string> msgs;
    setupUnreachable(rt, msgs);
    SmartConf sc(rt, "q");
    for (int episode = 0; episode < 3; ++episode) {
        for (int i = 0; i < 500; ++i) {
            sc.setPerf(0.0);
            ASSERT_DOUBLE_EQ(sc.getConfReal(), 50.0);
        }
        sc.setPerf(10000.0); // zero step: the episode ends
        sc.getConfReal();
    }
    ASSERT_EQ(msgs.size(), 3u);
    EXPECT_EQ(rt.alertCount(), 3);
    for (const std::string &msg : msgs)
        EXPECT_EQ(msg, "goal 'mem' appears unreachable: configuration "
                       "pinned at 50.000000");
}

TEST(SmartConfApi, LongSaturationAlertsOncePerEpisodeIndirect)
{
    SmartConfRuntime rt;
    std::vector<std::string> msgs;
    setupUnreachable(rt, msgs);
    SmartConfI sc(rt, "q");
    double deputy = 0.0;
    for (int episode = 0; episode < 3; ++episode) {
        for (int i = 0; i < 500; ++i) {
            sc.setPerf(0.0, deputy);
            deputy = sc.getConfReal();
            ASSERT_DOUBLE_EQ(deputy, 50.0);
        }
        sc.setPerf(10000.0, deputy);
        sc.getConfReal();
    }
    ASSERT_EQ(msgs.size(), 3u);
    EXPECT_EQ(rt.alertCount(), 3);
    for (const std::string &msg : msgs)
        EXPECT_EQ(msg, "goal 'mem' appears unreachable: deputy pinned "
                       "at 50.000000");
}

TEST(SmartConfApi, InteractingConfsShareSuperHardGoal)
{
    // HB3813 + HB6728 against one memory goal (paper Sec. 6.5).
    SmartConfRuntime rt;
    rt.declareConf({"req.q", "mem", 0.0, 0.0, 10000.0});
    rt.declareConf({"resp.q", "mem", 0.0, 0.0, 10000.0});
    Goal g;
    g.metric = "mem";
    g.value = 400.0;
    g.superHard = true;
    g.hard = true;
    rt.declareGoal(g);
    rt.installProfile("req.q", summary(1.0, 0.0));
    rt.installProfile("resp.q", summary(1.0, 0.0));

    SmartConfI a(rt, "req.q");
    SmartConfI b(rt, "resp.q");

    double qa = 0.0, qb = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double mem = qa + qb;
        a.setPerf(mem, qa);
        qa = a.getConfReal();
        b.setPerf(qa + qb, qb);
        qb = b.getConfReal();
    }
    // Both queues settle and the shared constraint holds.
    EXPECT_NEAR(qa + qb, 400.0, 2.0);
    EXPECT_LE(qa + qb, 402.0);
    EXPECT_GT(qa, 50.0);
    EXPECT_GT(qb, 50.0);
}

} // namespace
} // namespace smartconf
