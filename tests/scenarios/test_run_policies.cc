/**
 * @file
 * Scenario::runPolicies returns, byte for byte, what one run() per
 * policy returns.  The YCSB scenarios draw their op stream once for
 * every policy; lists that mix a run that stops early with full-length
 * ones, a chaos campaign, the Fig. 7 controllers and a duplicate must
 * still read the stream each run() would have drawn.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/disk_cache.h"
#include "fault/spec.h"
#include "scenarios/hb3813.h"
#include "scenarios/scenario.h"

namespace smartconf::scenarios {
namespace {

using exec::DiskRunCache;

void
expectSameBytes(const Scenario &s, const std::vector<Policy> &policies,
                std::uint64_t seed)
{
    const std::vector<ScenarioResult> got = s.runPolicies(policies, seed);
    ASSERT_EQ(got.size(), policies.size());
    for (std::size_t i = 0; i < policies.size(); ++i) {
        SCOPED_TRACE(s.info().id + " seed " + std::to_string(seed) +
                     " policy #" + std::to_string(i) + " (" +
                     policies[i].cacheKey() + ")");
        EXPECT_EQ(DiskRunCache::serializeResult(got[i]),
                  DiskRunCache::serializeResult(s.run(policies[i], seed)));
    }
}

class RunPolicies : public ::testing::TestWithParam<const char *>
{};

TEST_P(RunPolicies, BytesEqualOneRunPerPolicy)
{
    const auto s = makeScenario(GetParam());
    ASSERT_NE(s, nullptr);
    const ScenarioInfo &info = s->info();
    const std::vector<Policy> policies = {
        // Crashes early on three of the four YCSB scenarios, so the
        // full-length run after it reads past the recorded stretch.
        Policy::makeStatic(info.buggy_default),
        Policy::smart(),
        Policy::smart().withChaos(fault::ChaosSpec::kitchenSink(3)),
        Policy::singlePole(),
        Policy::noVirtualGoal(),
        Policy::makeStatic(info.patch_default),
        Policy::makeStatic(info.buggy_default), // a duplicate
    };
    for (const std::uint64_t seed : {1u, 2u})
        expectSameBytes(*s, policies, seed);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, RunPolicies,
                         ::testing::Values("CA6059", "HB2149", "HB3813",
                                           "HB6728", "HD4995", "MR2820"));

TEST(RunPoliciesFig7, ControllerKindsShareOneStream)
{
    // The Fig. 7 variant: SmartConf runs all 1800 ticks, and the
    // controller without a virtual goal dies at the compaction burst,
    // after the full-length runs recorded the stream.
    Hb3813Options o;
    o.write_fraction = 0.7;
    o.arrival_base = 16.0;
    o.arrival_amp = 3.0;
    o.arrival_amp2 = 1.0;
    o.phase1_ticks = 1800;
    o.total_ticks = 1800;
    o.spike_mb = 150.0;
    o.spike_at = 900;
    o.spike_ramp = 30;
    const Hb3813Scenario s(o);
    const std::vector<Policy> policies = {
        Policy::smart(), Policy::singlePole(0.9), Policy::noVirtualGoal()};
    expectSameBytes(s, policies, 1);

    const std::vector<ScenarioResult> r = s.runPolicies(policies, 1);
    EXPECT_FALSE(r[0].violated);
    EXPECT_TRUE(r[2].violated);
    EXPECT_LT(r[2].ops_simulated, r[0].ops_simulated);
}

TEST(RunPoliciesStopTicks, AnEarlyCrashCountsOnlyItsOwnTicks)
{
    const auto s = makeScenario("HB3813");
    const std::vector<Policy> policies = {
        Policy::smart(), Policy::makeStatic(s->info().buggy_default)};
    const std::vector<ScenarioResult> r = s->runPolicies(policies, 1);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_TRUE(r[1].violated);
    EXPECT_GT(r[1].ops_simulated, 0u);
    EXPECT_LT(r[1].ops_simulated, r[0].ops_simulated);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : r[1].shard_ops)
        sum += v;
    EXPECT_EQ(sum, r[1].ops_simulated);
}

TEST(RunPoliciesEmpty, NoPoliciesNoResults)
{
    for (const auto &s : makeAllScenarios())
        EXPECT_TRUE(s->runPolicies({}, 1).empty()) << s->info().id;
}

} // namespace
} // namespace smartconf::scenarios
