/**
 * @file Property-based round-trip tests for the SmartConf file formats:
 * any structurally valid document must survive format -> parse intact,
 * and no mutated text may crash a parser or slip past it half-read.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>

#include "core/sysfile.h"
#include "sim/rng.h"

namespace smartconf {
namespace {

/**
 * Feed @p text to one parser.  A rejection must be one of the two
 * documented errors; an accepted document must format without
 * throwing and survive parse -> format -> parse unchanged.  Format is
 * injective on parsed documents (17 significant digits, entry order
 * kept), so "unchanged" is checked as equal formatted text.
 * @return 1 when the parser accepted @p text.
 */
template <typename Parse, typename Format>
int
acceptRoundTrips(const std::string &text, Parse parse, Format format)
{
    decltype(parse(text)) doc;
    try {
        doc = parse(text);
    } catch (const std::runtime_error &) {
        return 0;
    } catch (const std::invalid_argument &) {
        return 0;
    }
    const std::string once = format(doc);
    EXPECT_EQ(format(parse(once)), once) << "mutated input:\n" << text;
    return 1;
}

TEST(SysFileFuzz, MutatedPaperTextsParseCleanlyOrNotAtAll)
{
    // Verbatim from the paper's Fig. 2, as in test_sysfile.cc.
    const std::string seeds[] = {
        "/* SmartConf.sys */\n"
        "max.queue.size @ memory_consumption_max\n"
        "max.queue.size = 50\n",
        "/* HBase.conf */\n"
        "memory_consumption_max = 1024\n"
        "memory_consumption_max.hard = 1\n",
    };
    // Fragments the grammar gives meaning to, spliced in whole so that
    // mutants reach comments, mappings, attributes and edge numbers.
    const std::string tokens[] = {
        "#", "//", "/*", "*/", "@", "=", " ", "\n", "\r", "\t", ".min",
        ".max", ".hard", ".superhard = 1", ".direction = lower",
        "profiling = 1", "nan", "inf", "-", "1e999", "1e-320", "0x1p3",
        "conf = q\n", "sample = 1 2\n", "settings = 3\n",
    };

    sim::Rng rng(2149);
    int accepted = 0;
    for (int iter = 0; iter < 10000 && !HasFailure(); ++iter) {
        std::string text = seeds[rng.below(std::size(seeds))];
        const auto edits = rng.between(1, 4);
        for (std::int64_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(text.size() + 1);
            const auto byte = static_cast<char>(rng.below(256));
            switch (rng.below(4)) {
            case 0:
                if (pos < text.size())
                    text[pos] = byte;
                break;
            case 1:
                text.insert(pos, 1, byte);
                break;
            case 2:
                if (pos < text.size())
                    text.erase(pos, 1);
                break;
            default:
                text.insert(pos, tokens[rng.below(std::size(tokens))]);
            }
        }
        accepted += acceptRoundTrips(text, parseSysFile, formatSysFile);
        accepted += acceptRoundTrips(text, parseUserConf, formatUserConf);
        accepted +=
            acceptRoundTrips(text, parseProfileFile, formatProfileFile);
    }
    // The loop must reach the accept path, not only the error paths.
    EXPECT_GT(accepted, 3000);
}

class SysFileRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SysFileRoundTrip, RandomSysFilesSurvive)
{
    sim::Rng rng(GetParam());
    SysFile original;
    original.profilingEnabled = rng.chance(0.5);
    const int n = static_cast<int>(rng.between(1, 6));
    for (int i = 0; i < n; ++i) {
        ConfEntry e;
        e.name = "conf." + std::to_string(rng.below(1000));
        e.metric = "metric_" + std::to_string(rng.below(10));
        e.initial = rng.uniform(-1000.0, 1000.0);
        e.confMin = rng.uniform(0.0, 10.0);
        e.confMax = e.confMin + rng.uniform(1.0, 1e6);
        // names must be unique for a faithful comparison
        e.name += "_" + std::to_string(i);
        original.entries.push_back(e);
    }

    const SysFile parsed = parseSysFile(formatSysFile(original));
    EXPECT_EQ(parsed.profilingEnabled, original.profilingEnabled);
    ASSERT_EQ(parsed.entries.size(), original.entries.size());
    for (std::size_t i = 0; i < original.entries.size(); ++i) {
        const ConfEntry &a = original.entries[i];
        const ConfEntry *b = parsed.find(a.name);
        ASSERT_NE(b, nullptr) << a.name;
        EXPECT_EQ(b->metric, a.metric);
        EXPECT_DOUBLE_EQ(b->initial, a.initial);
        EXPECT_DOUBLE_EQ(b->confMin, a.confMin);
        EXPECT_DOUBLE_EQ(b->confMax, a.confMax);
    }
}

TEST_P(SysFileRoundTrip, RandomUserConfsSurvive)
{
    sim::Rng rng(GetParam() * 31 + 7);
    UserConf original;
    const int n = static_cast<int>(rng.between(1, 5));
    for (int i = 0; i < n; ++i) {
        Goal g;
        g.metric = "metric_" + std::to_string(i);
        g.value = rng.uniform(-1e6, 1e6);
        g.hard = rng.chance(0.5);
        g.superHard = g.hard && rng.chance(0.3);
        g.direction = rng.chance(0.8) ? GoalDirection::UpperBound
                                      : GoalDirection::LowerBound;
        original.goals[g.metric] = g;
    }

    const UserConf parsed = parseUserConf(formatUserConf(original));
    ASSERT_EQ(parsed.goals.size(), original.goals.size());
    for (const auto &[metric, a] : original.goals) {
        const Goal &b = parsed.goals.at(metric);
        EXPECT_DOUBLE_EQ(b.value, a.value);
        EXPECT_EQ(b.hard, a.hard);
        EXPECT_EQ(b.superHard, a.superHard);
        EXPECT_EQ(b.direction, a.direction);
    }
}

TEST_P(SysFileRoundTrip, RandomProfileStoresSurvive)
{
    sim::Rng rng(GetParam() * 97 + 13);
    ProfileFile original;
    original.conf = "conf." + std::to_string(rng.below(100));
    original.summary.alpha = rng.uniform(-10.0, 10.0);
    original.summary.base = rng.uniform(-1e3, 1e3);
    original.summary.lambda = rng.uniform(0.0, 0.9);
    original.summary.delta = rng.uniform(1.0, 100.0);
    original.summary.pole = rng.uniform(0.0, 0.99);
    original.summary.correlation = rng.uniform(-1.0, 1.0);
    original.summary.settings = rng.below(10);
    original.summary.samples = rng.below(100);
    original.summary.monotonic = rng.chance(0.8);
    const int n = static_cast<int>(rng.between(0, 50));
    for (int i = 0; i < n; ++i) {
        original.samples.push_back(
            {rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4)});
    }

    const ProfileFile parsed =
        parseProfileFile(formatProfileFile(original));
    EXPECT_EQ(parsed.conf, original.conf);
    EXPECT_DOUBLE_EQ(parsed.summary.alpha, original.summary.alpha);
    EXPECT_DOUBLE_EQ(parsed.summary.lambda, original.summary.lambda);
    EXPECT_DOUBLE_EQ(parsed.summary.pole, original.summary.pole);
    EXPECT_EQ(parsed.summary.monotonic, original.summary.monotonic);
    ASSERT_EQ(parsed.samples.size(), original.samples.size());
    for (std::size_t i = 0; i < original.samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(parsed.samples[i].config,
                         original.samples[i].config);
        EXPECT_DOUBLE_EQ(parsed.samples[i].perf,
                         original.samples[i].perf);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SysFileRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace smartconf
