/**
 * @file
 * Queryable-index coverage: run-key parsing and range queries over
 * (scenario family, policy, seed range, chaos spec) answered from the
 * segment index with zero simulation and zero payload IO.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "store/query.h"
#include "store/segment.h"
#include "store/segment_store.h"

namespace smartconf::store {
namespace {

namespace fs = std::filesystem;

class StoreQueryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("smartconf-query-test-" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    static SegmentStore::Options quiet()
    {
        SegmentStore::Options o;
        o.auto_compact = false;
        o.flush_entries = 8;
        return o;
    }

    static void put(SegmentStore &s, const std::string &key)
    {
        const std::string payload = "p:" + key;
        ASSERT_TRUE(s.put(key,
                          std::vector<char>(payload.begin(),
                                            payload.end()),
                          blockChecksum(payload.data(),
                                        payload.size())));
    }

    std::string dir_;
};

TEST_F(StoreQueryTest, ParsesRealRunKeyShapes)
{
    // Shapes produced by RunCache::key + Policy::cacheKey today.
    ParsedRunKey k;
    ASSERT_TRUE(parseRunKey(
        "HB3813|smartconf:label=SmartConf|s=17", k));
    EXPECT_EQ(k.scenario, "HB3813");
    EXPECT_EQ(k.family, "HB3813");
    EXPECT_EQ(k.policy, "smartconf:label=SmartConf");
    EXPECT_EQ(k.chaos, "");
    EXPECT_EQ(k.seed, 17u);

    ASSERT_TRUE(parseRunKey(
        "HB3813/fig7|fixed:v=256:label=Default|s=3", k));
    EXPECT_EQ(k.scenario, "HB3813/fig7");
    EXPECT_EQ(k.family, "HB3813");
    EXPECT_EQ(k.policy, "fixed:v=256:label=Default");

    ASSERT_TRUE(parseRunKey("MR-dg|smartconf:chaos:s=11:nan=0.01:"
                            "label=Chaos|s=5",
                            k));
    EXPECT_EQ(k.family, "MR-dg");
    EXPECT_EQ(k.chaos, "chaos:s=11:nan=0.01");
    EXPECT_EQ(k.seed, 5u);

    // The seed separator must be the *last* "|s=", not one embedded
    // in a chaos spec.
    ASSERT_TRUE(parseRunKey("A|p:chaos:s=9|s=2", k));
    EXPECT_EQ(k.seed, 2u);

    EXPECT_FALSE(parseRunKey("no-separators", k));
    EXPECT_FALSE(parseRunKey("a|b", k));
    EXPECT_FALSE(parseRunKey("a|b|s=xyz", k));
}

TEST_F(StoreQueryTest, RangeQueryAnswersFromIndexWithZeroPayloadIO)
{
    {
        SegmentStore w(dir_, quiet());
        for (int seed = 0; seed < 10; ++seed) {
            put(w, "HB3813|smartconf:label=SmartConf|s=" +
                       std::to_string(seed));
            put(w, "HB3813/fig7|fixed:v=64:label=Default|s=" +
                       std::to_string(seed));
            put(w, "MR-dg|smartconf:chaos:s=4:nan=0.01:label=C|s=" +
                       std::to_string(seed));
        }
        ASSERT_TRUE(w.flush());
    }

    SegmentStore s(dir_, quiet());
    const StoreStats before = s.stats();

    // Family + seed range.
    QueryFilter f;
    f.scenario_prefix = "HB3813";
    f.seed_min = 2;
    f.seed_max = 4;
    std::vector<QueryRow> rows = queryStore(s, f);
    EXPECT_EQ(rows.size(), 6u); // 2 HB3813 variants x seeds {2,3,4}
    for (const QueryRow &r : rows) {
        EXPECT_GE(r.seed, 2u);
        EXPECT_LE(r.seed, 4u);
        EXPECT_EQ(r.scenario.rfind("HB3813", 0), 0u);
        EXPECT_FALSE(r.segment.empty()) << "row not from a segment";
    }

    // Policy substring.
    f = QueryFilter{};
    f.policy_substr = "fixed:v=64";
    EXPECT_EQ(queryStore(s, f).size(), 10u);

    // Chaos: any / none / substring.
    f = QueryFilter{};
    f.chaos_substr = "*";
    EXPECT_EQ(queryStore(s, f).size(), 10u);
    f.chaos_substr = "-";
    EXPECT_EQ(queryStore(s, f).size(), 20u);
    f.chaos_substr = "nan=0.01";
    EXPECT_EQ(queryStore(s, f).size(), 10u);

    // The whole campaign read zero payload bytes: index-only.
    const StoreStats after = s.stats();
    EXPECT_EQ(after.reads, before.reads);
    EXPECT_EQ(after.read_bytes, before.read_bytes);
}

TEST_F(StoreQueryTest, QuerySeesPendingEntriesAndDedupsSuperseded)
{
    SegmentStore s(dir_, quiet());
    put(s, "A|p|s=1");
    ASSERT_TRUE(s.flush());
    put(s, "A|p|s=1"); // superseding duplicate, still pending
    put(s, "A|p|s=2"); // pending only

    const std::vector<QueryRow> rows = queryStore(s, QueryFilter{});
    EXPECT_EQ(rows.size(), 2u) << "duplicate key leaked into results";
    // s=1 must come from the pending buffer (newest wins).
    for (const QueryRow &r : rows) {
        if (r.seed == 1) {
            EXPECT_TRUE(r.segment.empty());
        }
    }
}

TEST_F(StoreQueryTest, QuerySurvivesCompaction)
{
    SegmentStore s(dir_, quiet());
    for (int seed = 0; seed < 12; ++seed)
        put(s, "A|p|s=" + std::to_string(seed));
    ASSERT_TRUE(s.flush());
    for (int seed = 0; seed < 12; ++seed)
        put(s, "A|p|s=" + std::to_string(seed)); // duplicates
    ASSERT_TRUE(s.flush());
    (void)s.compact();

    QueryFilter f;
    f.seed_min = 3;
    f.seed_max = 11;
    const std::vector<QueryRow> rows = queryStore(s, f);
    EXPECT_EQ(rows.size(), 9u);
}

} // namespace
} // namespace smartconf::store
