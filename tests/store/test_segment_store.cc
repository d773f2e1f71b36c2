/**
 * @file
 * SegmentStore unit coverage: the segment format itself, put/get
 * round-trips, sealing thresholds, rescan-based cross-instance
 * visibility, compaction (dedup, level bump, input unlinking, the
 * flush-time threshold), verify, and the corruption contract at
 * segment granularity (torn tail, flipped index page, forged hash
 * collision).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "support/cache_faults.h"
#include "store/query.h"
#include "store/segment.h"
#include "store/segment_store.h"

namespace smartconf::store {
namespace {

namespace fs = std::filesystem;

class SegmentStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("smartconf-store-test-" +
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

    static SegmentStore::Options quiet(std::size_t flush_entries = 4)
    {
        SegmentStore::Options o;
        o.auto_compact = false;
        o.flush_entries = flush_entries;
        return o;
    }

    static std::string payloadFor(int i)
    {
        std::string p = "payload-" + std::to_string(i) + "-";
        p.append(static_cast<std::size_t>(17 + i % 31), 'x');
        return p;
    }

    static bool putStr(SegmentStore &s, const std::string &key,
                       const std::string &payload)
    {
        return s.put(key,
                     std::vector<char>(payload.begin(), payload.end()),
                     blockChecksum(payload.data(), payload.size()));
    }

    static std::string keyFor(int i)
    {
        return "scn" + std::to_string(i % 3) + "|policy|s=" +
               std::to_string(i);
    }

    std::string dir_;
};

TEST_F(SegmentStoreTest, PutGetRoundTripsThroughPendingAndSealed)
{
    SegmentStore s(dir_, quiet(4));
    ASSERT_TRUE(putStr(s, "k1", "hello"));
    std::vector<char> out;
    ASSERT_TRUE(s.get("k1", out)) << "read-your-writes from pending";
    EXPECT_EQ(std::string(out.begin(), out.end()), "hello");

    ASSERT_TRUE(s.flush());
    ASSERT_TRUE(s.get("k1", out)) << "read after seal";
    EXPECT_EQ(std::string(out.begin(), out.end()), "hello");
    EXPECT_FALSE(s.get("missing", out));
}

TEST_F(SegmentStoreTest, PutsReuseThePayloadBuffersASealReleased)
{
    SegmentStore s(dir_, quiet(64));
    std::vector<const char *> sealed;
    for (int i = 0; i < 8; ++i) {
        std::vector<char> p = s.takeBuffer(1000 + 100 * i);
        EXPECT_GE(p.capacity(), 1000u + 100 * i);
        p.assign(static_cast<std::size_t>(1000 + 100 * i), 'a');
        sealed.push_back(p.data());
        const std::uint64_t sum = blockChecksum(p.data(), p.size());
        ASSERT_TRUE(s.put(keyFor(i), std::move(p), sum));
    }
    ASSERT_TRUE(s.flush());

    // The smallest released buffer that fits: the 1,500-byte one.
    std::vector<char> b = s.takeBuffer(1450);
    EXPECT_TRUE(b.empty());
    EXPECT_GE(b.capacity(), 1450u);
    EXPECT_EQ(b.data(), sealed[5]);
    // None fits: a new buffer.
    const std::vector<char> big = s.takeBuffer(4000);
    EXPECT_GE(big.capacity(), 4000u);
    EXPECT_EQ(std::find(sealed.begin(), sealed.end(), big.data()),
              sealed.end());

    // The sealed bytes are on disk, not in the reused buffers.
    b.assign(1450, 'z');
    for (int i = 0; i < 8; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(s.get(keyFor(i), out));
        EXPECT_EQ(out, std::vector<char>(
                           static_cast<std::size_t>(1000 + 100 * i), 'a'));
    }
}

TEST_F(SegmentStoreTest, ConcurrentPutsTakeBuffersWhileSealsReleaseThem)
{
    // Seals every few entries, so buffers come back while other threads
    // take them.
    SegmentStore s(dir_, quiet(2));
    constexpr int kThreads = 4, kPerThread = 40;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&s, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const int i = t * kPerThread + j;
                const std::string p = payloadFor(i);
                std::vector<char> b = s.takeBuffer(p.size());
                b.assign(p.begin(), p.end());
                const std::uint64_t sum = blockChecksum(b.data(), b.size());
                EXPECT_TRUE(s.put(keyFor(i), std::move(b), sum));
            }
        });
    for (std::thread &th : threads)
        th.join();
    ASSERT_TRUE(s.flush());
    for (int i = 0; i < kThreads * kPerThread; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(s.get(keyFor(i), out)) << keyFor(i);
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(i));
    }
}

TEST_F(SegmentStoreTest, SealsAtEntryThresholdWithoutExplicitFlush)
{
    SegmentStore s(dir_, quiet(4));
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(putStr(s, keyFor(i), payloadFor(i)));
    // 16 entries with threshold 4 must have published something even
    // before flush() — exact counts depend on shard distribution.
    EXPECT_GT(s.stats().segments_published, 0u);
    ASSERT_TRUE(s.flush());
    for (int i = 0; i < 16; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(s.get(keyFor(i), out)) << keyFor(i);
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(i));
    }
}

TEST_F(SegmentStoreTest, DuplicatePutOverwritesInPendingBuffer)
{
    SegmentStore s(dir_, quiet(64));
    ASSERT_TRUE(putStr(s, "k", "old"));
    ASSERT_TRUE(putStr(s, "k", "new"));
    std::vector<char> out;
    ASSERT_TRUE(s.get("k", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "new");
    EXPECT_EQ(s.stats().pending_entries, 1u);
}

TEST_F(SegmentStoreTest, FreshInstanceSeesPublishedSegments)
{
    {
        SegmentStore w(dir_, quiet());
        for (int i = 0; i < 12; ++i)
            ASSERT_TRUE(putStr(w, keyFor(i), payloadFor(i)));
        ASSERT_TRUE(w.flush());
    }
    SegmentStore r(dir_, quiet());
    for (int i = 0; i < 12; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(r.get(keyFor(i), out)) << keyFor(i);
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(i));
    }
}

TEST_F(SegmentStoreTest, ShardCountAboveTheNameWidthKeepsSegmentsVisible)
{
    // Segment names carry the shard as two hex digits.  Asked for 512
    // shards, the store must still publish only names a fresh instance
    // parses back: take a key that a 512-way split puts in shard >= 256.
    SegmentStore::Options o = quiet();
    o.shard_count = 512;
    std::string key;
    for (int i = 0; key.empty(); ++i)
        if ((fnv1a64("k" + std::to_string(i)) & 511) >= 256)
            key = "k" + std::to_string(i);
    {
        SegmentStore w(dir_, o);
        EXPECT_LE(w.shardCount(), 256u);
        ASSERT_TRUE(putStr(w, key, "far-shard"));
        ASSERT_TRUE(w.flush());
    }
    SegmentStore r(dir_, o);
    std::vector<char> out;
    ASSERT_TRUE(r.get(key, out)) << key;
    EXPECT_EQ(std::string(out.begin(), out.end()), "far-shard");
    EXPECT_EQ(r.segmentCount(), 1u);
    EXPECT_TRUE(r.verify().clean());
}

TEST_F(SegmentStoreTest, RescanPicksUpSegmentsPublishedByAPeer)
{
    SegmentStore reader(dir_, quiet());
    std::vector<char> out;
    EXPECT_FALSE(reader.get("k-late", out));
    {
        SegmentStore peer(dir_, quiet());
        ASSERT_TRUE(putStr(peer, "k-late", "from-peer"));
        ASSERT_TRUE(peer.flush());
    }
    // The miss-path rescan must discover the peer's segment without a
    // new reader instance.
    ASSERT_TRUE(reader.get("k-late", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "from-peer");
    EXPECT_GT(reader.stats().rescans, 0u);
}

TEST_F(SegmentStoreTest, FreshInstanceSealsNewerThanEveryPublishedSegment)
{
    const auto seqOf = [](const std::string &path) {
        unsigned shard = 0;
        unsigned long long seq = 0;
        const std::string name = fs::path(path).filename().string();
        EXPECT_EQ(std::sscanf(name.c_str(), "seg-%2x-%16llx-", &shard,
                              &seq),
                  2)
            << name;
        return static_cast<std::uint64_t>(seq);
    };
    SegmentStore::Options one = quiet(64);
    one.shard_count = 1;
    {
        // Four publishes compacted into one: the only file left on disk
        // carries a seq that an instance counting from zero would hand
        // out again without clashing with any name.
        SegmentStore w(dir_, one);
        for (int round = 0; round < 4; ++round) {
            ASSERT_TRUE(putStr(w, "k", "old-" + std::to_string(round)));
            ASSERT_TRUE(w.flush());
        }
        ASSERT_EQ(w.compact().segments_out, 1u);
    }
    std::uint64_t newest_before = 0;
    for (const std::string &path : fault::listSegmentFiles(dir_))
        newest_before = std::max(newest_before, seqOf(path));

    // A second instance that only puts and flushes: it never reads, so
    // only the seal itself can learn the seq floor from the directory.
    {
        SegmentStore second(dir_, one);
        ASSERT_TRUE(putStr(second, "k", "new"));
        ASSERT_TRUE(second.flush());
    }
    std::uint64_t newest_after = 0;
    for (const std::string &path : fault::listSegmentFiles(dir_))
        newest_after = std::max(newest_after, seqOf(path));
    EXPECT_GT(newest_after, newest_before);

    // So its copy is the one lookups and compaction keep.
    SegmentStore r(dir_, one);
    std::vector<char> out;
    ASSERT_TRUE(r.get("k", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "new");
    ASSERT_EQ(r.compact().segments_out, 1u);
    ASSERT_TRUE(r.get("k", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "new");
    SegmentStore after(dir_, one);
    ASSERT_TRUE(after.get("k", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "new");
}

TEST_F(SegmentStoreTest, ConcurrentFirstGetsOnAFreshInstanceAllHit)
{
    constexpr int kKeys = 64;
    {
        SegmentStore w(dir_, quiet(8));
        for (int i = 0; i < kKeys; ++i)
            ASSERT_TRUE(putStr(w, keyFor(i), payloadFor(i)));
        ASSERT_TRUE(w.flush());
    }
    // Every reader's first get misses the empty segment list of a fresh
    // instance while another reader's rescan is filling it; each must
    // wait for that scan and retry, not report a miss.
    std::atomic<int> misses{0};
    for (int round = 0; round < 20; ++round) {
        SegmentStore r(dir_, quiet());
        std::atomic<int> ready{0};
        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t) {
            readers.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < 4)
                    std::this_thread::yield();
                std::vector<char> out;
                for (int k = 0; k < kKeys; ++k) {
                    const int i = (k + t * 16) % kKeys;
                    if (!r.get(keyFor(i), out) ||
                        std::string(out.begin(), out.end()) !=
                            payloadFor(i))
                        misses.fetch_add(1);
                }
            });
        }
        for (std::thread &th : readers)
            th.join();
    }
    EXPECT_EQ(misses.load(), 0);
}

TEST_F(SegmentStoreTest, CompactionMergesDedupsAndUnlinksInputs)
{
    SegmentStore s(dir_, quiet(2));
    // Several generations of the same keys: later puts supersede.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(putStr(s, keyFor(i),
                               payloadFor(i + round * 100)));
        ASSERT_TRUE(s.flush());
    }
    const std::size_t before = s.segmentCount();
    ASSERT_GT(before, 1u);

    const CompactionResult cr = s.compact();
    EXPECT_GT(cr.shards_compacted, 0u);
    EXPECT_GT(cr.segments_in, cr.segments_out);
    EXPECT_LT(cr.entries_out, cr.entries_in) << "dedup did not happen";
    EXPECT_LE(s.segmentCount(), before);

    // Newest generation wins for every key.
    for (int i = 0; i < 8; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(s.get(keyFor(i), out));
        EXPECT_EQ(std::string(out.begin(), out.end()),
                  payloadFor(i + 300));
    }
    // Compacted segments carry a bumped level.
    bool saw_level = false;
    for (const std::string &path :
         fault::listSegmentFiles(dir_)) {
        SegmentHeader h;
        ASSERT_TRUE(readSegmentHeader(path, h));
        if (h.level > 0)
            saw_level = true;
    }
    EXPECT_TRUE(saw_level);
    // And a fresh instance reads the post-compaction layout.
    SegmentStore r(dir_, quiet());
    std::vector<char> out;
    ASSERT_TRUE(r.get(keyFor(0), out));
    EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(300));
}

TEST_F(SegmentStoreTest, FlushCompactsAShardAtTheThreshold)
{
    static_assert(SegmentStore::kCompactMinSegments == 8);
    SegmentStore::Options o;
    o.flush_entries = 1; // every put seals its own segment
    o.shard_count = 1;   // all keys in one shard: threshold is exact
    ASSERT_TRUE(o.auto_compact);
    SegmentStore s(dir_, o);
    // Below the threshold a flush merges nothing.
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(putStr(s, keyFor(i), payloadFor(i)));
    ASSERT_TRUE(s.flush());
    EXPECT_EQ(s.segmentCount(), 7u);
    // A sealing put never merges, even when it reaches the threshold.
    ASSERT_TRUE(putStr(s, keyFor(7), payloadFor(7)));
    EXPECT_EQ(s.segmentCount(), 8u);
    // A flush with nothing pending still merges the full shard.
    ASSERT_EQ(s.stats().pending_entries, 0u);
    ASSERT_TRUE(s.flush());
    EXPECT_EQ(s.segmentCount(), 1u);
    for (int i = 0; i < 8; ++i) {
        std::vector<char> out;
        ASSERT_TRUE(s.get(keyFor(i), out)) << keyFor(i);
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(i));
    }
    EXPECT_TRUE(s.verify().clean());
}

TEST_F(SegmentStoreTest, CompactionRacingReadersNeverDropsAnEntry)
{
    SegmentStore s(dir_, quiet(1)); // one segment per put
    constexpr int kKeys = 32;
    for (int i = 0; i < kKeys; ++i)
        ASSERT_TRUE(putStr(s, keyFor(i), payloadFor(i)));
    ASSERT_TRUE(s.flush());

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            std::vector<char> out;
            while (!stop.load()) {
                for (int i = 0; i < kKeys; ++i) {
                    if (!s.get(keyFor(i), out) ||
                        std::string(out.begin(), out.end()) !=
                            payloadFor(i))
                        failures.fetch_add(1);
                }
            }
        });
    }
    // Compact (twice — second is mostly a no-op) while readers hammer.
    (void)s.compact();
    (void)s.compact();
    stop.store(true);
    for (std::thread &th : readers)
        th.join();
    EXPECT_EQ(failures.load(), 0)
        << "a reader observed a miss or a wrong payload mid-compaction";
}

TEST_F(SegmentStoreTest, VerifyIsCleanOnAHealthyStore)
{
    SegmentStore s(dir_, quiet(4));
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(putStr(s, keyFor(i), payloadFor(i)));
    const VerifyResult v = s.verify();
    EXPECT_TRUE(v.clean());
    EXPECT_GT(v.segments_ok, 0u);
    EXPECT_EQ(v.entries_ok, 16u);
    EXPECT_EQ(v.entries_corrupt, 0u);
}

TEST_F(SegmentStoreTest, TruncatedSegmentTailDegradesToMissAndVerifyFlags)
{
    SegmentStore::Options one = quiet(64);
    one.shard_count = 1; // exactly one segment holds all 8 entries
    {
        SegmentStore w(dir_, one);
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(putStr(w, keyFor(i), payloadFor(i)));
        ASSERT_TRUE(w.flush());
    }
    const std::vector<std::string> segs = fault::listSegmentFiles(dir_);
    ASSERT_EQ(segs.size(), 1u);
    ASSERT_TRUE(fault::truncateSegmentTail(segs[0], 5));

    SegmentStore r(dir_, one);
    std::vector<char> out;
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(r.get(keyFor(i), out)) << keyFor(i);
    const VerifyResult v = r.verify();
    EXPECT_FALSE(v.clean());
    EXPECT_GT(v.segments_corrupt, 0u);
}

TEST_F(SegmentStoreTest, FlippedIndexPageRejectsWholeSegment)
{
    SegmentStore::Options one = quiet(64);
    one.shard_count = 1;
    {
        SegmentStore w(dir_, one);
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(putStr(w, keyFor(i), payloadFor(i)));
        ASSERT_TRUE(w.flush());
    }
    const std::vector<std::string> segs = fault::listSegmentFiles(dir_);
    ASSERT_EQ(segs.size(), 1u);
    ASSERT_TRUE(fault::flipIndexBit(segs[0], 11, 3));

    SegmentStore r(dir_, one);
    std::vector<char> out;
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(r.get(keyFor(i), out))
            << keyFor(i) << " served from a checksum-failing index";
    const VerifyResult v = r.verify();
    EXPECT_FALSE(v.clean());
}

TEST_F(SegmentStoreTest, FilesThatAreNotSegmentsAreSkippedAndKept)
{
    // The directory listing is the only record of live segments.  A
    // file whose name does not parse as a segment (bookkeeping an older
    // build wrote, a temp file a crash left) is neither read nor
    // deleted, and does not disturb lookups, verify or compaction.
    SegmentStore::Options one = quiet(64);
    one.shard_count = 1;
    {
        SegmentStore w(dir_, one);
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(putStr(w, keyFor(i), payloadFor(i)));
            if (i % 4 == 3) {
                ASSERT_TRUE(w.flush()); // two segments
            }
        }
    }
    const std::vector<std::string> strays = {
        dir_ + "/LEFTOVER", dir_ + "/seg-00-0000000000000009-1.seg.tmp"};
    for (const std::string &path : strays) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a segment\n", f);
        ASSERT_EQ(std::fclose(f), 0);
    }
    SegmentStore r(dir_, one);
    std::vector<char> out;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(r.get(keyFor(i), out)) << keyFor(i);
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(i));
    }
    const VerifyResult v = r.verify();
    EXPECT_TRUE(v.clean());
    EXPECT_EQ(v.segments_ok, 2u);
    EXPECT_EQ(v.entries_ok, 8u);
    ASSERT_EQ(r.compact().segments_in, 2u);
    EXPECT_EQ(r.segmentCount(), 1u);
    for (const std::string &path : strays)
        EXPECT_TRUE(fs::exists(path)) << path;
}

TEST_F(SegmentStoreTest, ForgedHashCollisionStillMissesOnFullKey)
{
    // Surgery at the format level: rewrite the single index entry's
    // hash to the one "victim-key" would look up, fixing both
    // checksums so the segment parses cleanly.  The lookup must still
    // miss, because the full key in the blob says "real-key".
    {
        SegmentStore w(dir_, quiet(64));
        ASSERT_TRUE(putStr(w, "real-key", "data"));
        ASSERT_TRUE(w.flush());
    }
    const std::vector<std::string> segs = fault::listSegmentFiles(dir_);
    ASSERT_EQ(segs.size(), 1u);

    SegmentHeader h;
    ASSERT_TRUE(readSegmentHeader(segs[0], h));
    std::FILE *f = std::fopen(segs[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::vector<char> block(h.index_len);
    ASSERT_EQ(std::fseek(f, static_cast<long>(h.index_off), SEEK_SET),
              0);
    ASSERT_EQ(std::fread(block.data(), 1, block.size(), f),
              block.size());
    IndexEntry e;
    std::memcpy(&e, block.data(), sizeof e);
    ASSERT_EQ(e.hash, fnv1a64(std::string("real-key")));
    e.hash = fnv1a64(std::string("victim-key"));
    std::memcpy(block.data(), &e, sizeof e);
    h.index_checksum = blockChecksum(block.data(), block.size());
    h.header_checksum = headerChecksum(h);
    ASSERT_EQ(std::fseek(f, static_cast<long>(h.index_off), SEEK_SET),
              0);
    ASSERT_EQ(std::fwrite(block.data(), 1, block.size(), f),
              block.size());
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&h, 1, kSegmentHeaderBytes, f),
              kSegmentHeaderBytes);
    ASSERT_EQ(std::fclose(f), 0);

    // Same shard only by luck of the mask — force a fresh store and
    // ask for the victim: full-key comparison must reject the forgery.
    SegmentStore::Options o = quiet();
    o.shard_count = 1; // every hash lands in the one shard
    SegmentStore r(dir_, o);
    std::vector<char> out;
    EXPECT_FALSE(r.get("victim-key", out))
        << "forged hash collision served a foreign payload";
}

TEST_F(SegmentStoreTest, SeedParsesFromRunKeys)
{
    std::uint64_t seed = 0;
    EXPECT_TRUE(SegmentStore::seedOfKey("a|b|s=42", seed));
    EXPECT_EQ(seed, 42u);
    EXPECT_TRUE(SegmentStore::seedOfKey("a|b:s=9|s=7", seed));
    EXPECT_EQ(seed, 7u);
    EXPECT_FALSE(SegmentStore::seedOfKey("a|b", seed));
    EXPECT_FALSE(SegmentStore::seedOfKey("a|b|s=", seed));
    EXPECT_FALSE(SegmentStore::seedOfKey("a|b|s=4x", seed));
}

TEST_F(SegmentStoreTest, ConcurrentPutsAndGetsKeepEveryEntry)
{
    SegmentStore s(dir_, quiet(16));
    constexpr int kPerThread = 64;
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int id = t * kPerThread + i;
                const std::string p = payloadFor(id);
                ASSERT_TRUE(s.put("w|p|s=" + std::to_string(id),
                                  std::vector<char>(p.begin(), p.end()),
                                  blockChecksum(p.data(), p.size())));
            }
        });
    }
    for (std::thread &th : writers)
        th.join();
    ASSERT_TRUE(s.flush());
    for (int id = 0; id < 4 * kPerThread; ++id) {
        std::vector<char> out;
        ASSERT_TRUE(s.get("w|p|s=" + std::to_string(id), out)) << id;
        EXPECT_EQ(std::string(out.begin(), out.end()), payloadFor(id));
    }
}

} // namespace
} // namespace smartconf::store
