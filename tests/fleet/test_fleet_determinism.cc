/**
 * @file
 * Fleet determinism across executor configurations: the results that
 * feed bench_fleet's JSON payload must be identical whether the epoch
 * bodies run in a plain loop or on a pool of any size.  This is the
 * in-process half of the `bench_fleet --json` byte-identity that CI
 * checks via the payload sha at every --jobs value.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "fleet/fleet.h"

namespace smartconf::fleet {
namespace {

/**
 * A fleet whose epochs draw 8000 traffic words: more than one draw
 * chunk, and not a multiple of it, so a chunked draw that lost or
 * repeated a word would move the counts.
 */
FleetParams
multiChunkFleet()
{
    FleetParams p;
    p.tenants = 1000;
    p.draws_per_tenant = 8.0;
    p.ticks = 60;
    p.seed = 3;
    return p;
}

/**
 * 37 tenants in clusters of 5: fewer tenants than kFleetGroups, so
 * every group holds one tenant and each cluster is bound from several
 * groups.  Memory ends in a trailing partial cluster of 4 and disk in
 * a single leftover tenant that keeps its local goal.
 */
FleetParams
tailFleet()
{
    FleetParams p;
    p.tenants = 37;
    p.cluster_size = 5;
    p.ticks = 120;
    p.seed = 3;
    return p;
}

/** 1,000 tenants in clusters of 7: partial tails on both metrics. */
FleetParams
sevenFleet()
{
    FleetParams p;
    p.tenants = 1000;
    p.cluster_size = 7;
    p.ticks = 120;
    p.seed = 3;
    return p;
}

/**
 * The default epoch shape; an odd one: 7-tick epochs carry a spare
 * normal across every epoch boundary, are not a multiple of the
 * control period, and 23 ticks end in a 2-tick epoch; the multi-chunk
 * traffic fleet; a single epoch, whose traffic is all drawn before
 * the loop, so no epoch body draws any; and the two cluster layouts
 * above.
 */
std::vector<FleetParams>
testFleets()
{
    FleetParams p;
    p.tenants = 512;
    p.ticks = 120;
    p.seed = 3;
    FleetParams odd = p;
    odd.epoch_ticks = 7;
    odd.ticks = 23;
    FleetParams one_epoch = p;
    one_epoch.ticks = 15;
    return {p, odd, multiChunkFleet(), one_epoch, tailFleet(),
            sevenFleet()};
}

std::string
label(const FleetParams &p)
{
    return "tenants=" + std::to_string(p.tenants) +
           " cluster_size=" + std::to_string(p.cluster_size) +
           " epoch_ticks=" + std::to_string(p.epoch_ticks) +
           " ticks=" + std::to_string(p.ticks);
}

void
expectIdentical(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_DOUBLE_EQ(a.violation_rate_mean, b.violation_rate_mean);
    EXPECT_DOUBLE_EQ(a.violation_rate_p99, b.violation_rate_p99);
    EXPECT_DOUBLE_EQ(a.tenants_violated_frac,
                     b.tenants_violated_frac);
    EXPECT_DOUBLE_EQ(a.convergence_p50_ticks,
                     b.convergence_p50_ticks);
    EXPECT_DOUBLE_EQ(a.convergence_p99_ticks,
                     b.convergence_p99_ticks);
    EXPECT_DOUBLE_EQ(a.mean_conf_rel, b.mean_conf_rel);
    EXPECT_EQ(a.clusters, b.clusters);
    EXPECT_DOUBLE_EQ(a.max_interaction, b.max_interaction);
    EXPECT_EQ(a.coord.attach_calls, b.coord.attach_calls);
    EXPECT_EQ(a.coord.aggregate_violations,
              b.coord.aggregate_violations);
    ASSERT_EQ(a.per_archetype.size(), b.per_archetype.size());
    for (std::size_t i = 0; i < a.per_archetype.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.per_archetype[i].violation_rate,
                         b.per_archetype[i].violation_rate);
        EXPECT_DOUBLE_EQ(a.per_archetype[i].mean_conf_rel,
                         b.per_archetype[i].mean_conf_rel);
    }
}

TEST(FleetDeterminism, PoolSizeDoesNotChangeResults)
{
    for (const FleetParams &base : testFleets()) {
        SCOPED_TRACE(label(base));
        // Reference: no pool, the groups run in a plain loop.
        const FleetResult serial = runFleet(base);

        for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
            exec::ThreadPool pool(jobs);
            FleetParams p = base;
            p.pool = &pool;
            const FleetResult parallel = runFleet(p);
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            expectIdentical(serial, parallel);
        }
    }
}

TEST(FleetDeterminism, RepeatRunsAreBitIdentical)
{
    for (const FleetParams &p : testFleets()) {
        SCOPED_TRACE(label(p));
        const FleetResult a = runFleet(p);
        const FleetResult b = runFleet(p);
        expectIdentical(a, b);
        EXPECT_EQ(a.coord.fanouts, b.coord.fanouts);
        EXPECT_EQ(a.epochs, b.epochs);
    }
}

TEST(FleetDeterminism, ChecksumPinnedAcrossTrafficChunking)
{
    // Recorded from the build that drew each epoch's traffic in one
    // serial batch at the epoch boundary: drawing it in chunks, one
    // epoch ahead inside the parallel body, must not move a count.
    const FleetParams base = multiChunkFleet();
    const FleetResult serial = runFleet(base);
    EXPECT_EQ(serial.epochs, 3u);
    EXPECT_EQ(serial.checksum, 0xedfb2ed703aa6857ULL);
    EXPECT_DOUBLE_EQ(serial.convergence_p99_ticks, 24.0);

    exec::ThreadPool pool(4);
    FleetParams p = base;
    p.pool = &pool;
    const FleetResult parallel = runFleet(p);
    EXPECT_EQ(parallel.checksum, 0xedfb2ed703aa6857ULL);
    EXPECT_DOUBLE_EQ(parallel.convergence_p99_ticks, 24.0);
}

TEST(FleetDeterminism, ClusterTailsMatchTheSerialSetUp)
{
    // Recorded from the build that built the tenants one by one and
    // filled each metric's clusters in a serial walk over them: the
    // index-planned layout must give the same members, in the same
    // order, under the same goals.
    const FleetResult tail = runFleet(tailFleet());
    EXPECT_EQ(tail.clusters, 5u);
    EXPECT_EQ(tail.clustered_tenants, 24u);
    EXPECT_EQ(tail.checksum, 0x5be7fca89ff4cdf9ULL);

    const FleetResult seven = runFleet(sevenFleet());
    EXPECT_EQ(seven.clusters, 96u);
    EXPECT_EQ(seven.clustered_tenants, 667u);
    EXPECT_EQ(seven.checksum, 0xf9fb7ca377c60824ULL);
}

} // namespace
} // namespace smartconf::fleet
