/** @file Tests that the study dataset matches every published count. */

#include <gtest/gtest.h>

#include <set>

#include "study/dataset.h"

namespace smartconf::study {
namespace {

const StudyDataset &
ds()
{
    static const StudyDataset d = StudyDataset::paper();
    return d;
}

TEST(Dataset, Table2PopulationsMatchPaper)
{
    // Table 2: PerfConf/AllConf issues and posts per system.
    const struct
    {
        System sys;
        int issues, posts, all_issues, all_posts;
    } rows[] = {
        {System::Cassandra, 20, 20, 32, 60},
        {System::HBase, 30, 7, 48, 33},
        {System::Hdfs, 20, 7, 31, 39},
        {System::MapReduce, 10, 20, 13, 25},
    };
    for (const auto &row : rows) {
        const SuiteCounts c = ds().suiteCounts(row.sys);
        EXPECT_EQ(c.perfconf_issues, row.issues)
            << systemFullName(row.sys);
        EXPECT_EQ(c.perfconf_posts, row.posts);
        EXPECT_EQ(c.allconf_issues, row.all_issues);
        EXPECT_EQ(c.allconf_posts, row.all_posts);
    }
}

TEST(Dataset, Totals)
{
    EXPECT_EQ(ds().issues().size(), 80u);
    EXPECT_EQ(ds().posts().size(), 54u);
}

TEST(Dataset, IssueIdsUniqueAndSystemTagged)
{
    std::set<std::string> ids;
    for (const auto &issue : ds().issues()) {
        EXPECT_TRUE(ids.insert(issue.id).second)
            << "duplicate id " << issue.id;
        EXPECT_EQ(issue.id.substr(0, 2),
                  std::string(systemShortName(issue.sys)));
    }
}

TEST(Dataset, EveryIssueAffectsAtLeastOneMetric)
{
    for (const auto &issue : ds().issues())
        EXPECT_GE(issue.coarseMetricCount(), 1) << issue.id;
}

TEST(Dataset, MultiMetricCountMatchesPaper)
{
    int multi = 0;
    for (const auto &issue : ds().issues())
        multi += issue.multi_metric ? 1 : 0;
    EXPECT_EQ(multi, 61); // "61 out of 80"
}

TEST(Dataset, CoarseMultiImpliesMultiFlag)
{
    for (const auto &issue : ds().issues()) {
        if (issue.coarseMetricCount() >= 2) {
            EXPECT_TRUE(issue.multi_metric) << issue.id;
        }
    }
}

TEST(Dataset, FunctionalityTradeoffsMatchPaper)
{
    int n = 0;
    for (const auto &issue : ds().issues())
        n += issue.func_tradeoff ? 1 : 0;
    EXPECT_EQ(n, 13);
}

TEST(Dataset, AboutHalfThreatenHardConstraints)
{
    int n = 0;
    for (const auto &issue : ds().issues())
        n += issue.threatens_hard ? 1 : 0;
    // "about half of PerfConfs threaten hard performance constraints".
    EXPECT_GE(n, 35);
    EXPECT_LE(n, 45);
}

TEST(Dataset, PostSharesMatchSection221)
{
    int howto = 0, specific = 0, oom = 0;
    for (const auto &post : ds().posts()) {
        howto += post.type == PostType::HowToSet ? 1 : 0;
        specific += post.asks_specific_conf ? 1 : 0;
        oom += post.mentions_oom ? 1 : 0;
    }
    const double n = static_cast<double>(ds().posts().size());
    EXPECT_NEAR(howto / n, 0.40, 0.05);   // "about 40%"
    EXPECT_NEAR(specific / n, 0.50, 0.05); // "about half"
    EXPECT_NEAR(oom / n, 0.30, 0.05);      // "~30%"
}

TEST(Dataset, SystemHelpers)
{
    EXPECT_STREQ(systemShortName(System::Cassandra), "CA");
    EXPECT_STREQ(systemFullName(System::MapReduce), "MapReduce");
    EXPECT_EQ(kSystems.size(), 4u);
}

TEST(Dataset, DeterministicConstruction)
{
    const StudyDataset a = StudyDataset::paper();
    const StudyDataset b = StudyDataset::paper();
    ASSERT_EQ(a.issues().size(), b.issues().size());
    for (std::size_t i = 0; i < a.issues().size(); ++i) {
        EXPECT_EQ(a.issues()[i].id, b.issues()[i].id);
        EXPECT_EQ(a.issues()[i].multi_metric,
                  b.issues()[i].multi_metric);
    }
}

} // namespace
} // namespace smartconf::study
