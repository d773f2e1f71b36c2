/** @file Unit tests for the SmartConf file formats (Fig. 2). */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/sysfile.h"

namespace smartconf {
namespace {

TEST(SysFile, ParsesPaperExample)
{
    // Verbatim from the paper's Fig. 2 (SmartConf.sys part).
    const std::string text =
        "/* SmartConf.sys */\n"
        "max.queue.size @ memory_consumption_max\n"
        "max.queue.size = 50\n";
    const SysFile f = parseSysFile(text);
    ASSERT_EQ(f.entries.size(), 1u);
    EXPECT_EQ(f.entries[0].name, "max.queue.size");
    EXPECT_EQ(f.entries[0].metric, "memory_consumption_max");
    EXPECT_DOUBLE_EQ(f.entries[0].initial, 50.0);
}

TEST(SysFile, ClampsAndProfilingFlag)
{
    const SysFile f = parseSysFile(
        "profiling = 1\n"
        "q @ mem\n"
        "q = 10\n"
        "q.min = 2\n"
        "q.max = 500\n");
    EXPECT_TRUE(f.profilingEnabled);
    const ConfEntry *e = f.find("q");
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->confMin, 2.0);
    EXPECT_DOUBLE_EQ(e->confMax, 500.0);
}

TEST(SysFile, MultipleEntriesAndComments)
{
    const SysFile f = parseSysFile(
        "# request queue\n"
        "a @ mem // inline comment\n"
        "a = 1\n"
        "b @ latency\n"
        "b = 2.5\n");
    EXPECT_EQ(f.entries.size(), 2u);
    EXPECT_EQ(f.find("b")->metric, "latency");
    EXPECT_DOUBLE_EQ(f.find("b")->initial, 2.5);
}

TEST(SysFile, FindMissingReturnsNull)
{
    const SysFile f = parseSysFile("a @ m\n");
    EXPECT_EQ(f.find("zzz"), nullptr);
}

TEST(SysFile, MalformedLinesThrowWithLineNumber)
{
    try {
        parseSysFile("a @ m\n???\n");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(SysFile, BadNumberThrows)
{
    EXPECT_THROW(parseSysFile("a = banana\n"), std::runtime_error);
    EXPECT_THROW(parseSysFile("a = 1.5x\n"), std::runtime_error);
}

TEST(SysFile, RoundTrip)
{
    SysFile f;
    f.profilingEnabled = true;
    f.entries.push_back({"q.size", "mem", 50.0, 1.0, 2000.0});
    const SysFile g = parseSysFile(formatSysFile(f));
    EXPECT_TRUE(g.profilingEnabled);
    ASSERT_EQ(g.entries.size(), 1u);
    EXPECT_EQ(g.entries[0].name, "q.size");
    EXPECT_EQ(g.entries[0].metric, "mem");
    EXPECT_DOUBLE_EQ(g.entries[0].initial, 50.0);
    EXPECT_DOUBLE_EQ(g.entries[0].confMin, 1.0);
    EXPECT_DOUBLE_EQ(g.entries[0].confMax, 2000.0);
}

TEST(SysFile, CommentMarkerInNameIsRejectedBothWays)
{
    // The reader cuts a line at its first comment marker, so a name
    // holding one can never be read back.
    SysFile f;
    f.entries.push_back({"queue#1", "mem", 1.0, 0.0, 10.0});
    EXPECT_THROW(formatSysFile(f), std::invalid_argument);
    f.entries[0].name = "queue/*1";
    EXPECT_THROW(formatSysFile(f), std::invalid_argument);
}

TEST(SysFile, DoubleSlashInMetricIsRejected)
{
    // The reader would cut `lat//p99` to `lat`.
    SysFile f;
    f.entries.push_back({"q", "lat//p99", 1.0, 0.0, 10.0});
    EXPECT_THROW(formatSysFile(f), std::invalid_argument);
}

TEST(SysFile, AtSignInKeyIsRejectedBothWays)
{
    // The mapping line `a@b @ m` would read back as entry `a` mapped
    // to `b @ m`.
    SysFile f;
    f.entries.push_back({"a@b", "m", 5.0, 0.0, 10.0});
    EXPECT_THROW(formatSysFile(f), std::invalid_argument);
    EXPECT_THROW(parseSysFile("a@b = 5\n"), std::runtime_error);
}

TEST(SysFile, EntryWithoutMetricRoundTrips)
{
    // No mapping line: `q @ ` would not parse.
    const SysFile f = parseSysFile("q = 5\n");
    ASSERT_EQ(f.entries.size(), 1u);
    const std::string text = formatSysFile(f);
    EXPECT_EQ(text.find('@'), std::string::npos) << text;
    const SysFile g = parseSysFile(text);
    ASSERT_EQ(g.entries.size(), 1u);
    EXPECT_EQ(g.entries[0].name, "q");
    EXPECT_EQ(g.entries[0].metric, "");
    EXPECT_DOUBLE_EQ(g.entries[0].initial, 5.0);
}

TEST(SysFile, UnterminatedBlockCommentNamesItsLine)
{
    // An open block must not swallow the rest of the file unnoticed.
    try {
        parseSysFile("a @ m\na = 1 /* never closed\nb = 2\n");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(parseUserConf("mem = 1\n/* open"), std::runtime_error);
    // A marker after a line comment opens nothing.
    EXPECT_EQ(parseSysFile("a = 1 # see /* below\n").entries.size(), 1u);
}

TEST(SysFile, NonFiniteNumbersAreRejectedBothWays)
{
    for (const char *text : {"a = nan\n", "a = inf\n", "a.max = -inf\n",
                             "a = 1e999\n", "profiling = nan\n"})
        EXPECT_THROW(parseSysFile(text), std::invalid_argument) << text;
    EXPECT_THROW(parseUserConf("mem = nan\n"), std::invalid_argument);
    EXPECT_THROW(parseProfileFile("conf = q\nsample = 1 inf\n"),
                 std::invalid_argument);
    SysFile f;
    f.entries.push_back({"q", "m", std::nan(""), 0.0, 1.0});
    EXPECT_THROW(formatSysFile(f), std::invalid_argument);
    UserConf c;
    c.goals["mem"].value = HUGE_VAL;
    EXPECT_THROW(formatUserConf(c), std::invalid_argument);
}

TEST(SysFile, ReservedAndMultiTokenNamesAreRejectedBothWays)
{
    // Each of these would come back as a different document.
    for (const char *name : {"q.min", "q.max", "profiling", "a b", ""}) {
        SysFile f;
        f.entries.push_back({name, "m", 1.0, 0.0, 2.0});
        EXPECT_THROW(formatSysFile(f), std::invalid_argument) << name;
    }
    EXPECT_THROW(parseSysFile("profiling @ m\n"), std::runtime_error);
    EXPECT_THROW(parseSysFile("q.min.max = 1\n"), std::runtime_error);
    EXPECT_THROW(parseSysFile("a b = 1\n"), std::runtime_error);
    UserConf c;
    c.goals["mem.hard"].value = 1.0;
    EXPECT_THROW(formatUserConf(c), std::invalid_argument);
    EXPECT_THROW(parseUserConf("mem.hard.hard = 1\n"), std::runtime_error);
}

TEST(UserConf, ParsesPaperExample)
{
    // Verbatim from the paper's Fig. 2 (HBase.conf part).
    const UserConf c = parseUserConf(
        "/* HBase.conf */\n"
        "memory_consumption_max = 1024\n"
        "memory_consumption_max.hard = 1\n");
    const Goal &g = c.goals.at("memory_consumption_max");
    EXPECT_DOUBLE_EQ(g.value, 1024.0);
    EXPECT_TRUE(g.hard);
    EXPECT_FALSE(g.superHard);
    EXPECT_EQ(g.direction, GoalDirection::UpperBound);
}

TEST(UserConf, SuperHardImpliesHard)
{
    const UserConf c = parseUserConf(
        "mem = 512\n"
        "mem.superhard = 1\n");
    EXPECT_TRUE(c.goals.at("mem").superHard);
    EXPECT_TRUE(c.goals.at("mem").hard);
}

TEST(UserConf, SuperHardImpliesHardInAnyLineOrder)
{
    // A super-hard, non-hard goal would format to text that parses
    // back hard.
    const UserConf c = parseUserConf(
        "mem = 512\n"
        "mem.superhard = 1\n"
        "mem.hard = 0\n");
    EXPECT_TRUE(c.goals.at("mem").hard);
}

TEST(UserConf, Direction)
{
    const UserConf c = parseUserConf(
        "tput = 100\n"
        "tput.direction = lower\n");
    EXPECT_EQ(c.goals.at("tput").direction, GoalDirection::LowerBound);
    EXPECT_THROW(parseUserConf("x = 1\nx.direction = sideways\n"),
                 std::runtime_error);
}

TEST(UserConf, AttributeBeforeValue)
{
    // Order independence: .hard can precede the goal value.
    const UserConf c = parseUserConf(
        "mem.hard = 1\n"
        "mem = 256\n");
    EXPECT_TRUE(c.goals.at("mem").hard);
    EXPECT_DOUBLE_EQ(c.goals.at("mem").value, 256.0);
}

TEST(UserConf, RoundTrip)
{
    UserConf c;
    Goal g;
    g.metric = "mem";
    g.value = 512.0;
    g.hard = true;
    g.superHard = true;
    c.goals["mem"] = g;
    const UserConf d = parseUserConf(formatUserConf(c));
    EXPECT_TRUE(d.goals.at("mem").superHard);
    EXPECT_DOUBLE_EQ(d.goals.at("mem").value, 512.0);
}

TEST(ProfileFileFormat, RoundTrip)
{
    ProfileFile f;
    f.conf = "max.queue.size";
    f.summary.alpha = 1.25;
    f.summary.base = 210.5;
    f.summary.lambda = 0.101;
    f.summary.delta = 4.2;
    f.summary.pole = 0.52;
    f.summary.correlation = 0.93;
    f.summary.settings = 4;
    f.summary.samples = 40;
    f.summary.monotonic = true;
    f.samples = {{40.0, 251.0}, {80.0, 291.5}};

    const ProfileFile g = parseProfileFile(formatProfileFile(f));
    EXPECT_EQ(g.conf, f.conf);
    EXPECT_DOUBLE_EQ(g.summary.alpha, f.summary.alpha);
    EXPECT_DOUBLE_EQ(g.summary.lambda, f.summary.lambda);
    EXPECT_DOUBLE_EQ(g.summary.pole, f.summary.pole);
    EXPECT_EQ(g.summary.settings, 4u);
    ASSERT_EQ(g.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(g.samples[1].config, 80.0);
    EXPECT_DOUBLE_EQ(g.samples[1].perf, 291.5);
}

TEST(ProfileFileFormat, RejectsWhatFormatCannotWriteBack)
{
    // Counts are exact integers: no sign, fraction or overflowing cast.
    EXPECT_THROW(parseProfileFile("conf = q\nsettings = -1\n"),
                 std::runtime_error);
    EXPECT_THROW(parseProfileFile("conf = q\nsamples = 2.5\n"),
                 std::runtime_error);
    EXPECT_EQ(parseProfileFile("conf = q\nsamples = 18446744073709551615\n")
                  .summary.samples,
              18446744073709551615ULL);
    // A store names its configuration, as one token.
    EXPECT_THROW(parseProfileFile("alpha = 1\n"), std::runtime_error);
    EXPECT_THROW(parseProfileFile("conf = a b\n"), std::runtime_error);
    EXPECT_THROW(formatProfileFile(ProfileFile{}), std::invalid_argument);
}

TEST(ProfileFileFormat, UnknownKeyThrows)
{
    EXPECT_THROW(parseProfileFile("conf = a\nwat = 3\n"),
                 std::runtime_error);
}

TEST(ProfileFileFormat, MalformedSampleThrows)
{
    EXPECT_THROW(parseProfileFile("conf = a\nsample = 40\n"),
                 std::runtime_error);
}

TEST(TextFileIo, ReadMissingFileThrows)
{
    EXPECT_THROW(readTextFile("/nonexistent/smartconf.sys"),
                 std::runtime_error);
}

TEST(TextFileIo, WriteReadRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "/smartconf_io_test.txt";
    writeTextFile(path, "hello = 1\n");
    EXPECT_EQ(readTextFile(path), "hello = 1\n");
}

} // namespace
} // namespace smartconf
