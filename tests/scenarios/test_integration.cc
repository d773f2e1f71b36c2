/**
 * @file Cross-module integration tests: SmartConf file formats driving
 * a simulated server end-to-end, and the Fig. 8 interacting-controller
 * setup.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/sensor.h"
#include "core/smartconf.h"
#include "kvstore/server.h"
#include "scenarios/hb3813.h"
#include "workload/ycsb.h"

namespace smartconf::scenarios {
namespace {

/**
 * Full pipeline: profile HB3813, serialize the profiling store to the
 * <Conf>.SmartConf.sys format, reload everything from text (as a real
 * deployment would at startup), and drive the simulated region server
 * with the reloaded controller.
 */
TEST(Integration, FileFormatsDriveTheControllerEndToEnd)
{
    // 1. Profile and capture the store.
    Hb3813Scenario scenario;
    const ProfileSummary direct = scenario.profile(2024);

    ProfileFile store;
    store.conf = "ipc.server.max.queue.size";
    store.summary = direct;
    const std::string store_text = formatProfileFile(store);

    // 2. Boot a runtime purely from configuration text.
    SmartConfRuntime rt;
    rt.loadSysText(
        "ipc.server.max.queue.size @ memory_consumption_max\n"
        "ipc.server.max.queue.size = 0\n"
        "ipc.server.max.queue.size.min = 0\n"
        "ipc.server.max.queue.size.max = 5000\n");
    rt.loadUserConfText(
        "memory_consumption_max = 495\n"
        "memory_consumption_max.hard = 1\n");
    rt.loadProfileText(store_text);

    SmartConfI sc(rt, "ipc.server.max.queue.size");
    ASSERT_TRUE(sc.managed());

    // 3. Drive the simulated server for 100 s.
    kvstore::KvServerParams sp;
    sp.heap_mb = 495.0;
    sp.request_queue_items = 0;
    sp.other_base_mb = 200.0;
    sp.other_walk_mb = 6.0;
    sp.other_max_mb = 300.0;
    kvstore::KvServer server(sp, sim::Rng(5));
    workload::YcsbParams wp;
    wp.write_fraction = 1.0;
    wp.ops_per_tick = 10.0;
    workload::YcsbGenerator gen(wp, sim::Rng(6));

    std::vector<workload::Op> ops;
    for (sim::Tick t = 0; t < 1000; ++t) {
        gen.tickInto(ops);
        server.accept(ops, t);
        server.step(t);
        sc.setPerf(server.heap().usedMb(),
                   static_cast<double>(server.requestQueue().size()));
        server.requestQueue().setMaxItems(
            static_cast<std::size_t>(std::max(0, sc.getConf())));
    }
    EXPECT_FALSE(server.crashed());
    EXPECT_GT(server.completedOps(), 1000u);
    EXPECT_GT(server.requestQueue().maxItems(), 10u)
        << "controller opened the queue from its 0 start";
}

/**
 * Fig. 8: HB3813's request queue and HB6728's response queue attached
 * to one super-hard memory goal on a single heap.  Both controllers
 * must coordinate (interaction factor 2) and the constraint must hold
 * while reads join at t = 50 s.
 */
TEST(Integration, InteractingControllersShareTheHeap)
{
    Hb3813Scenario scenario;
    const ProfileSummary summary = scenario.profile(99);

    SmartConfRuntime rt;
    rt.declareConf({"req.q", "mem", 0.0, 0.0, 5000.0});
    rt.declareConf({"resp.q", "mem", 8.0, 1.0, 5000.0});
    Goal g;
    g.metric = "mem";
    g.value = 495.0;
    g.superHard = true;
    g.hard = true;
    rt.declareGoal(g);
    rt.installProfile("req.q", summary);
    rt.installProfile("resp.q", summary);

    SmartConfI req(rt, "req.q");
    SmartConfI resp(rt, "resp.q");
    EXPECT_EQ(rt.coordinator().interactionCount("mem"), 2u);

    kvstore::KvServerParams sp;
    sp.heap_mb = 495.0;
    sp.request_queue_items = 0;
    sp.response_queue_mb = 8.0;
    sp.other_base_mb = 150.0;
    sp.other_walk_mb = 5.0;
    sp.other_max_mb = 220.0;
    kvstore::KvServer server(sp, sim::Rng(7));

    workload::YcsbParams wp;
    wp.write_fraction = 1.0;
    wp.ops_per_tick = 18.0; // above the service rate: queues back up
    wp.request_size_mb = 1.0;
    workload::YcsbGenerator gen(wp, sim::Rng(8));

    double worst = 0.0;
    std::vector<workload::Op> ops;
    for (sim::Tick t = 0; t < 2400; ++t) {
        if (t == 500) {
            auto p = gen.params();
            p.write_fraction = 0.5; // reads join at 50 s
            p.request_size_mb = 1.5;
            gen.setParams(p);
        }
        gen.tickInto(ops);
        server.accept(ops, t);
        server.step(t);
        const double mem = server.heap().usedMb();
        worst = std::max(worst, mem);

        req.setPerf(mem, static_cast<double>(
                             server.requestQueue().size()));
        server.requestQueue().setMaxItems(static_cast<std::size_t>(
            std::max(0, req.getConf())));
        resp.setPerf(server.heap().usedMb(),
                     server.responseQueue().bytesMb());
        server.responseQueue().setMaxMb(
            std::max(1.0, resp.getConfReal()));
    }
    EXPECT_FALSE(server.crashed());
    EXPECT_LE(worst, 495.0) << "shared hard constraint held";
    EXPECT_GT(server.requestQueue().maxItems(), 0u);
    EXPECT_GT(server.responseQueue().maxMb(), 1.0);
}

/** Profiling and evaluation workloads differ (Sec. 6.1 principle). */
TEST(Integration, ControllerSurvivesWorkloadItNeverSaw)
{
    Hb3813Scenario scenario;
    // Evaluate on five different seeds; the controller was profiled on
    // a seed derived differently inside run().
    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
        const ScenarioResult r = scenario.run(Policy::smart(), seed);
        EXPECT_FALSE(r.violated) << "seed " << seed;
    }
}

} // namespace
} // namespace smartconf::scenarios

namespace smartconf::scenarios {
namespace {

/**
 * Tail-latency SLA control: the paper names "99 percentile read
 * latency" as a typical (even super-hard) goal.  A p99 sensor feeds a
 * controller that adjusts the request-queue bound: shorter queues mean
 * shorter queueing delays, so p99 tracks the SLA while the queue stays
 * as large (and the throughput as high) as the SLA permits.
 */
TEST(Integration, TailLatencySlaThroughPercentileSensor)
{
    SmartConfRuntime rt;
    rt.declareConf({"max.queue.size", "p99_delay_ticks", 200.0, 1.0,
                    2000.0});
    Goal g;
    g.metric = "p99_delay_ticks";
    g.value = 12.0; // 1.2 s tail budget
    rt.declareGoal(g);
    ProfileSummary s;
    // Queueing delay ~ queue length / service rate (12/ tick).
    s.alpha = 1.0 / 12.0;
    s.pole = 0.5;
    rt.installProfile("max.queue.size", s);
    SmartConfI sc(rt, "max.queue.size");

    kvstore::KvServerParams sp;
    sp.heap_mb = 100000.0; // memory is not the constraint here
    sp.request_queue_items = 200;
    sp.service_ops_per_tick = 12.0;
    sp.other_walk_mb = 0.0;
    kvstore::KvServer server(sp, sim::Rng(12));
    workload::YcsbParams wp;
    wp.write_fraction = 1.0;
    wp.ops_per_tick = 14.0; // oversubscribed: the queue would explode
    workload::YcsbGenerator gen(wp, sim::Rng(13));

    WindowPercentileSensor p99(99.0, 256);
    double late_p99 = 0.0;
    std::vector<workload::Op> ops;
    for (sim::Tick t = 0; t < 4000; ++t) {
        gen.tickInto(ops);
        server.accept(ops, t);
        server.step(t);
        // feed every completed op's queueing delay into the sensor
        for (const double delay : server.lastStepDelays())
            p99.observe(delay);
        // The percentile window spans ~21 ticks of completions, so the
        // controller is consulted on that cadence — reacting faster
        // than the sensor can observe would ratchet the bound down.
        if (t % 25 == 0) {
            sc.setPerf(p99.read(), static_cast<double>(
                                       server.requestQueue().size()));
            server.requestQueue().setMaxItems(static_cast<std::size_t>(
                std::max(1, sc.getConf())));
        }
        if (t > 3000)
            late_p99 = p99.read();
    }
    EXPECT_LE(late_p99, 16.0) << "tail latency tracks the SLA";
    EXPECT_GT(server.requestQueue().maxItems(), 2u)
        << "the bound is not collapsed to nothing";
    EXPECT_GT(server.completedOps(), 20000u);
}

} // namespace
} // namespace smartconf::scenarios

namespace smartconf::scenarios {
namespace {

/**
 * Sec. 4.3: "When users specify goals that cannot possibly be
 * satisfied, SmartConf makes its best effort towards the goal and
 * alerts users that the goal is unreachable."  Here the user demands
 * less memory than the server's own baseline consumes.
 */
TEST(Integration, ImpossibleGoalBestEffortPlusAlert)
{
    Hb3813Scenario donor;
    const ProfileSummary model = donor.profile(21);

    SmartConfRuntime rt;
    rt.declareConf({"max.queue.size", "mem", 50.0, 0.0, 5000.0});
    Goal g;
    g.metric = "mem";
    g.value = 150.0; // below the ~200 MB baseline: unreachable
    g.hard = true;
    rt.declareGoal(g);
    rt.installProfile("max.queue.size", model);

    int alerts = 0;
    rt.setAlertHandler([&alerts](const std::string &conf,
                                 const std::string &msg) {
        ++alerts;
        EXPECT_EQ(conf, "max.queue.size");
        EXPECT_NE(msg.find("unreachable"), std::string::npos);
    });

    SmartConfI sc(rt, "max.queue.size");
    kvstore::KvServerParams sp;
    sp.heap_mb = 495.0;
    sp.request_queue_items = 50;
    sp.other_base_mb = 200.0;
    sp.other_walk_mb = 2.0;
    sp.other_max_mb = 220.0;
    kvstore::KvServer server(sp, sim::Rng(31));
    workload::YcsbParams wp;
    wp.write_fraction = 1.0;
    wp.ops_per_tick = 10.0;
    workload::YcsbGenerator gen(wp, sim::Rng(32));

    std::vector<workload::Op> ops;
    for (sim::Tick t = 0; t < 300; ++t) {
        gen.tickInto(ops);
        server.accept(ops, t);
        server.step(t);
        sc.setPerf(server.heap().usedMb(),
                   static_cast<double>(server.requestQueue().size()));
        server.requestQueue().setMaxItems(static_cast<std::size_t>(
            std::max(0, sc.getConf())));
    }

    // Best effort: the queue is squeezed to nothing...
    EXPECT_EQ(server.requestQueue().maxItems(), 0u);
    // ...and the user is told exactly once per saturation episode.
    EXPECT_EQ(alerts, 1);
    EXPECT_EQ(rt.alertCount(), 1);
}

} // namespace
} // namespace smartconf::scenarios
