/**
 * @file
 * Real multi-process coverage: N writer processes and M reader
 * processes sharing one store directory, plus compaction racing a
 * reader process.  fork()-based, so this file is deliberately excluded
 * from the tsan/asan preset filters (sanitizers and fork do not mix);
 * children communicate only through exit codes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "store/query.h"
#include "store/segment.h"
#include "store/segment_store.h"
#include "support/scratch_dir.h"

namespace smartconf::store {
namespace {

namespace fs = std::filesystem;

class StoreMultiProcessTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = test_support::scratchDir("mp-test");
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    static SegmentStore::Options quiet(std::size_t flush_entries = 8)
    {
        SegmentStore::Options o;
        o.auto_compact = false;
        o.flush_entries = flush_entries;
        return o;
    }

    static std::string keyFor(int writer, int i)
    {
        return "scn|w" + std::to_string(writer) + "|s=" +
               std::to_string(i);
    }

    static std::string payloadFor(int writer, int i)
    {
        return "w" + std::to_string(writer) + "-" + std::to_string(i) +
               "-payload";
    }

    /** Run @p fn in a forked child; its return is the exit code. */
    static pid_t spawn(const std::function<int()> &fn)
    {
        const pid_t pid = ::fork();
        if (pid == 0)
            ::_exit(fn()); // no gtest teardown, no atexit
        return pid;
    }

    static int awaitExit(pid_t pid)
    {
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid)
            return -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    }

    std::string dir_;
};

TEST_F(StoreMultiProcessTest, NWritersMReadersOneStore)
{
    constexpr int kWriters = 3;
    constexpr int kReaders = 2;
    constexpr int kPerWriter = 40;

    std::vector<pid_t> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.push_back(spawn([&, w]() -> int {
            SegmentStore s(dir_, quiet());
            for (int i = 0; i < kPerWriter; ++i) {
                const std::string p = payloadFor(w, i);
                if (!s.put(keyFor(w, i),
                           std::vector<char>(p.begin(), p.end()),
                           blockChecksum(p.data(), p.size())))
                    return 10;
            }
            return s.flush() ? 0 : 11;
        }));
    }
    for (const pid_t pid : writers)
        ASSERT_EQ(awaitExit(pid), 0);

    // Readers are separate processes too: they must reconstruct the
    // full picture from the directory alone.
    std::vector<pid_t> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.push_back(spawn([&]() -> int {
            SegmentStore s(dir_, quiet());
            for (int w = 0; w < kWriters; ++w) {
                for (int i = 0; i < kPerWriter; ++i) {
                    std::vector<char> out;
                    if (!s.get(keyFor(w, i), out))
                        return 20;
                    if (std::string(out.begin(), out.end()) !=
                        payloadFor(w, i))
                        return 21; // wrong replay: the cardinal sin
                }
            }
            return 0;
        }));
    }
    for (const pid_t pid : readers)
        EXPECT_EQ(awaitExit(pid), 0);

    // And the parent verifies the combined store end-to-end.
    SegmentStore s(dir_, quiet());
    EXPECT_TRUE(s.verify().clean());
    EXPECT_EQ(queryStore(s, QueryFilter{}).size(),
              static_cast<std::size_t>(kWriters * kPerWriter));
}

TEST_F(StoreMultiProcessTest, CompactionInOneProcessRacesAReader)
{
    constexpr int kKeys = 48;
    {
        SegmentStore w(dir_, quiet(2)); // many small segments
        for (int i = 0; i < kKeys; ++i) {
            const std::string p = payloadFor(0, i);
            ASSERT_TRUE(w.put(keyFor(0, i),
                              std::vector<char>(p.begin(), p.end()),
                              blockChecksum(p.data(), p.size())));
        }
        ASSERT_TRUE(w.flush());
        // Duplicate generation so compaction has something to dedup.
        for (int i = 0; i < kKeys; ++i) {
            const std::string p = payloadFor(0, i);
            ASSERT_TRUE(w.put(keyFor(0, i),
                              std::vector<char>(p.begin(), p.end()),
                              blockChecksum(p.data(), p.size())));
        }
        ASSERT_TRUE(w.flush());
    }

    // Reader child loops over every key while the parent compacts.
    const pid_t reader = spawn([&]() -> int {
        SegmentStore s(dir_, quiet());
        for (int pass = 0; pass < 60; ++pass) {
            for (int i = 0; i < kKeys; ++i) {
                std::vector<char> out;
                if (!s.get(keyFor(0, i), out))
                    return 30; // an entry vanished mid-compaction
                if (std::string(out.begin(), out.end()) !=
                    payloadFor(0, i))
                    return 31;
            }
        }
        return 0;
    });

    SegmentStore compactor(dir_, quiet());
    const CompactionResult cr = compactor.compact();
    EXPECT_GT(cr.shards_compacted, 0u);
    EXPECT_EQ(awaitExit(reader), 0);

    // Post-compaction, a fresh process sees exactly one live copy of
    // every key and a clean store.
    SegmentStore s(dir_, quiet());
    EXPECT_TRUE(s.verify().clean());
    EXPECT_EQ(queryStore(s, QueryFilter{}).size(),
              static_cast<std::size_t>(kKeys));
}

TEST_F(StoreMultiProcessTest, ConcurrentWritersNeverCollideOnSegmentNames)
{
    // Two processes publishing simultaneously must never clobber each
    // other's segments (names embed pid; the claim loop checks
    // existence).
    constexpr int kWriters = 4;
    std::vector<pid_t> pids;
    for (int w = 0; w < kWriters; ++w) {
        pids.push_back(spawn([&, w]() -> int {
            SegmentStore s(dir_, quiet(1)); // one segment per put
            for (int i = 0; i < 12; ++i) {
                const std::string p = payloadFor(w, i);
                if (!s.put(keyFor(w, i),
                           std::vector<char>(p.begin(), p.end()),
                           blockChecksum(p.data(), p.size())))
                    return 40;
            }
            return s.flush() ? 0 : 41;
        }));
    }
    for (const pid_t pid : pids)
        ASSERT_EQ(awaitExit(pid), 0);

    SegmentStore s(dir_, quiet());
    EXPECT_EQ(queryStore(s, QueryFilter{}).size(),
              static_cast<std::size_t>(kWriters * 12));
    EXPECT_TRUE(s.verify().clean());
}

} // namespace
} // namespace smartconf::store
