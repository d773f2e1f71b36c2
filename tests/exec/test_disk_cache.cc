/**
 * @file
 * Persistent (cross-process) run cache: round-trip fidelity,
 * cross-instance warm start, versioning, and corruption tolerance.
 *
 * One DiskRunCache instance stands in for one process; a second
 * instance over the same root models a fresh process finding the
 * store already populated.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/disk_cache.h"
#include "exec/run_cache.h"
#include "support/cache_faults.h"
#include "scenarios/scenario.h"
#include "sim/metrics.h"
#include "sim/rng.h"

namespace smartconf::exec {
namespace {

namespace fs = std::filesystem;

class DiskRunCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("smartconf-cache-test-" +
                  std::to_string(::testing::UnitTest::GetInstance()
                                     ->random_seed()) +
                  "-" + test_name()))
                    .string();
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    static std::string test_name()
    {
        return ::testing::UnitTest::GetInstance()
            ->current_test_info()
            ->name();
    }

    /** Store options for throwaway reader instances: no compactor
     *  thread, so hundreds of fresh instances stay cheap. */
    static store::SegmentStore::Options quietOpts()
    {
        store::SegmentStore::Options o;
        o.auto_compact = false;
        return o;
    }

    static scenarios::ScenarioResult sampleResult()
    {
        scenarios::ScenarioResult r;
        r.scenario_id = "HB3813";
        r.policy_label = "SmartConf";
        r.violated = true;
        r.violation_time_s = 36.25;
        r.worst_goal_metric = 512.5;
        r.goal_value = 495.0;
        r.tradeoff = 1234.5;
        r.raw_tradeoff = 2345.75;
        r.mean_conf = 87.5;
        r.ops_simulated = 987654321;
        r.perf_series = sim::TimeSeries("used_memory_mb");
        r.conf_series = sim::TimeSeries("max.queue.size");
        r.tradeoff_series = sim::TimeSeries("completed_ops");
        for (int t = 0; t < 1000; ++t) {
            r.perf_series.record(t, 400.0 + 0.125 * t);
            r.conf_series.record(t, 100.0 - 0.01 * t);
            if (t % 10 == 0)
                r.tradeoff_series.record(t, 17.0 * t);
        }
        return r;
    }

    static void expectEqual(const scenarios::ScenarioResult &a,
                            const scenarios::ScenarioResult &b)
    {
        EXPECT_EQ(a.scenario_id, b.scenario_id);
        EXPECT_EQ(a.policy_label, b.policy_label);
        EXPECT_EQ(a.violated, b.violated);
        EXPECT_EQ(a.violation_time_s, b.violation_time_s);
        EXPECT_EQ(a.worst_goal_metric, b.worst_goal_metric);
        EXPECT_EQ(a.goal_value, b.goal_value);
        EXPECT_EQ(a.tradeoff, b.tradeoff);
        EXPECT_EQ(a.raw_tradeoff, b.raw_tradeoff);
        EXPECT_EQ(a.mean_conf, b.mean_conf);
        EXPECT_EQ(a.ops_simulated, b.ops_simulated);
        ASSERT_EQ(a.perf_series.size(), b.perf_series.size());
        EXPECT_EQ(a.perf_series.name(), b.perf_series.name());
        for (std::size_t i = 0; i < a.perf_series.size(); ++i) {
            EXPECT_EQ(a.perf_series.points()[i].tick,
                      b.perf_series.points()[i].tick);
            EXPECT_EQ(a.perf_series.points()[i].value,
                      b.perf_series.points()[i].value);
        }
        EXPECT_EQ(a.conf_series.size(), b.conf_series.size());
        EXPECT_EQ(a.tradeoff_series.size(), b.tradeoff_series.size());
    }

    std::string root_;
};

TEST_F(DiskRunCacheTest, RoundTripsEveryField)
{
    DiskRunCache cache(root_);
    const scenarios::ScenarioResult original = sampleResult();
    ASSERT_TRUE(cache.store("key-1", original));

    scenarios::ScenarioResult loaded;
    ASSERT_TRUE(cache.load("key-1", loaded));
    expectEqual(original, loaded);
}

TEST_F(DiskRunCacheTest, MissingKeyIsAMiss)
{
    DiskRunCache cache(root_);
    scenarios::ScenarioResult out;
    EXPECT_FALSE(cache.load("never-stored", out));
}

TEST_F(DiskRunCacheTest, SecondInstanceStartsWarm)
{
    // Process 1 stores; process 2 (a fresh instance over the same
    // root) must load without any shared in-memory state.
    {
        DiskRunCache writer(root_);
        ASSERT_TRUE(writer.store("shared-key", sampleResult()));
    }
    DiskRunCache reader(root_);
    scenarios::ScenarioResult out;
    ASSERT_TRUE(reader.load("shared-key", out));
    EXPECT_EQ(out.scenario_id, "HB3813");
    EXPECT_EQ(out.ops_simulated, 987654321u);
}

TEST_F(DiskRunCacheTest, FullKeyMismatchIsAMiss)
{
    // The store compares the stored full key, not just its hash: a key
    // that was never stored must miss even when entries from the same
    // shard exist.  (The forged-hash-collision case, where the index
    // *claims* the victim's hash, lives in the SegmentStore tests —
    // the forgery needs format-level surgery.)
    DiskRunCache cache(root_);
    ASSERT_TRUE(cache.store("key-a", sampleResult()));
    ASSERT_TRUE(cache.flush());
    scenarios::ScenarioResult out;
    EXPECT_FALSE(cache.load("key-b", out));
    DiskRunCache fresh(root_, quietOpts());
    EXPECT_FALSE(fresh.load("key-b", out));
    EXPECT_TRUE(fresh.load("key-a", out));
}

TEST_F(DiskRunCacheTest, TruncatedFileIsAMiss)
{
    {
        DiskRunCache cache(root_, quietOpts());
        ASSERT_TRUE(cache.store("key-t", sampleResult()));
        ASSERT_TRUE(cache.flush());
    }
    const std::vector<std::string> segs =
        fault::listSegmentFiles(DiskRunCache::versionDir(root_));
    ASSERT_EQ(segs.size(), 1u);
    fs::resize_file(segs[0], fs::file_size(segs[0]) / 2);

    DiskRunCache reader(root_, quietOpts());
    scenarios::ScenarioResult out;
    EXPECT_FALSE(reader.load("key-t", out)) << "torn segment accepted";
}

TEST_F(DiskRunCacheTest, VersionBumpInvalidatesByConstruction)
{
    // Entries live under a directory named for (format, engine)
    // versions, so a version bump reads from a different directory —
    // stale entries can never be loaded by a newer binary.
    DiskRunCache cache(root_);
    const std::string dir = cache.dir();
    EXPECT_NE(dir.find("/v"), std::string::npos);
    EXPECT_NE(dir.find("-e"), std::string::npos);
    ASSERT_TRUE(cache.store("k", sampleResult()));
    EXPECT_TRUE(fs::exists(dir));
}

TEST_F(DiskRunCacheTest, RunCacheSpillsAndReloadsAcrossInstances)
{
    int simulations = 0;
    const auto simulate = [&] {
        ++simulations;
        return sampleResult();
    };

    {
        RunCache first;
        first.attachDiskCache(root_);
        (void)first.getOrRun("job-key", simulate);
        EXPECT_EQ(simulations, 1);
        EXPECT_EQ(first.stats().disk_stores, 1u);
    }

    RunCache second; // fresh "process"
    second.attachDiskCache(root_);
    const scenarios::ScenarioResult replay =
        second.getOrRun("job-key", simulate);
    EXPECT_EQ(simulations, 1) << "second process re-simulated";
    EXPECT_EQ(second.stats().disk_hits, 1u);
    expectEqual(sampleResult(), replay);

    // In-memory hit on the second touch: disk is not re-read.
    (void)second.getOrRun("job-key", simulate);
    EXPECT_EQ(second.stats().disk_hits, 1u);
    EXPECT_EQ(second.stats().hits, 1u);
}

// --- Fault-path coverage (injected via support/cache_faults.h) ---------
//
// The cache's two promises under corruption:
//   1. any damaged entry degrades to a MISS, never a wrong series;
//   2. an unusable cache directory degrades to CACHE-OFF, never an
//      aborted sweep.

TEST_F(DiskRunCacheTest, BlockedRootDegradesToCacheOff)
{
    // A regular file where the root directory should be defeats
    // create_directories for every uid (unlike chmod, which root — the
    // usual CI user — bypasses).
    ASSERT_TRUE(fault::blockPathWithFile(root_));
    DiskRunCache cache(root_);
    EXPECT_FALSE(cache.store("k", sampleResult()))
        << "store into a blocked root must fail, not abort";
    scenarios::ScenarioResult out;
    EXPECT_FALSE(cache.load("k", out));
}

TEST_F(DiskRunCacheTest, SweepSurvivesBlockedRootAsCacheOff)
{
    ASSERT_TRUE(fault::blockPathWithFile(root_));
    RunCache cache;
    cache.attachDiskCache(root_);
    int simulations = 0;
    const auto simulate = [&] {
        ++simulations;
        return sampleResult();
    };
    const scenarios::ScenarioResult r = cache.getOrRun("k", simulate);
    EXPECT_EQ(simulations, 1) << "the run itself must still happen";
    EXPECT_EQ(r.scenario_id, "HB3813");
    EXPECT_EQ(cache.stats().disk_stores, 0u);
    // The in-memory layer still works: no disk, no re-simulation.
    (void)cache.getOrRun("k", simulate);
    EXPECT_EQ(simulations, 1);
}

TEST_F(DiskRunCacheTest, PublishTargetOccupiedIsRetriedNotFatal)
{
    // Occupy the first segment name this process would claim with a
    // directory: the claim loop must skip it and publish under the
    // next sequence number instead of failing the store.
    DiskRunCache cache(root_, quietOpts());
    const std::uint32_t shard =
        cache.segmentStore().shardOf("victim-key");
    char name[64];
    std::snprintf(name, sizeof name, "seg-%02x-%016llx-%lx.seg", shard,
                  1ULL, static_cast<unsigned long>(::getpid()));
    fs::create_directories(fs::path(cache.dir()) / name / "occupied");

    ASSERT_TRUE(cache.store("victim-key", sampleResult()));
    ASSERT_TRUE(cache.flush());
    DiskRunCache reader(root_, quietOpts());
    scenarios::ScenarioResult out;
    EXPECT_TRUE(reader.load("victim-key", out));
}

TEST_F(DiskRunCacheTest, TruncationAtEveryRegionIsAMiss)
{
    {
        DiskRunCache cache(root_, quietOpts());
        ASSERT_TRUE(cache.store("key-t", sampleResult()));
        ASSERT_TRUE(cache.flush());
    }
    const std::vector<std::string> segs =
        fault::listSegmentFiles(DiskRunCache::versionDir(root_));
    ASSERT_EQ(segs.size(), 1u);
    const std::int64_t size = fault::fileSize(segs[0]);
    ASSERT_GT(size, 0);
    const std::string pristine = segs[0] + ".pristine";
    fs::copy_file(segs[0], pristine);

    // Cut inside the header, the record region (key + payload), and
    // the index block — every region must degrade to a miss for a
    // fresh process.
    const std::vector<std::uint64_t> cuts = {
        0, 2, 8, 40, 63, 64, 100,
        static_cast<std::uint64_t>(size / 4),
        static_cast<std::uint64_t>(size / 2),
        static_cast<std::uint64_t>(size - 1),
    };
    for (const std::uint64_t keep : cuts) {
        fs::copy_file(pristine, segs[0],
                      fs::copy_options::overwrite_existing);
        ASSERT_TRUE(fault::truncateFile(segs[0], keep));
        DiskRunCache reader(root_, quietOpts());
        scenarios::ScenarioResult out;
        EXPECT_FALSE(reader.load("key-t", out))
            << "segment truncated to " << keep << " bytes accepted";
    }
    fs::remove(pristine);
}

TEST_F(DiskRunCacheTest, BitFlipAnywhereIsAMissNeverAWrongSeries)
{
    // Payload doubles are all "valid" bit patterns, so without the
    // payload checksum a flipped series byte would parse fine and
    // replay a silently wrong curve.  Sample flips across the whole
    // segment — header, record headers, keys, payloads, index block —
    // and demand a miss or the bit-exact original every time.  (Record
    // headers are outside the read path, so a flip there leaves the
    // still-intact payload readable — that is the "bit-exact original"
    // arm, never a wrong curve.)
    const scenarios::ScenarioResult original = sampleResult();
    {
        DiskRunCache cache(root_, quietOpts());
        ASSERT_TRUE(cache.store("key-f", original));
        ASSERT_TRUE(cache.flush());
    }
    const std::vector<std::string> segs =
        fault::listSegmentFiles(DiskRunCache::versionDir(root_));
    ASSERT_EQ(segs.size(), 1u);
    const std::int64_t size = fault::fileSize(segs[0]);
    ASSERT_GT(size, 0);

    int flips = 0, misses = 0;
    for (std::int64_t off = 0; off < size; off += 97, ++flips) {
        const unsigned bit = static_cast<unsigned>(off % 8);
        ASSERT_TRUE(fault::flipBit(segs[0],
                                   static_cast<std::uint64_t>(off), bit));
        DiskRunCache reader(root_, quietOpts());
        scenarios::ScenarioResult out;
        if (reader.load("key-f", out)) {
            expectEqual(original, out); // hit must be bit-exact
        } else {
            ++misses;
        }
        // Undo the flip so each iteration tests exactly one bad bit.
        ASSERT_TRUE(fault::flipBit(segs[0],
                                   static_cast<std::uint64_t>(off), bit));
    }
    EXPECT_GT(flips, 100) << "sampling did not cover the segment";
    EXPECT_GT(misses, 0) << "no flip ever landed on the read path";

    // With every flip undone the entry is intact again: bit-exact.
    DiskRunCache reader(root_, quietOpts());
    scenarios::ScenarioResult restored;
    ASSERT_TRUE(reader.load("key-f", restored));
    expectEqual(original, restored);
}

TEST_F(DiskRunCacheTest, WarmProcessReadsBatchedSegmentsNotPerEntry)
{
    // The v6 point: a warm second process opens a handful of segments
    // (at most one per shard here), not one file per entry.  Reads are
    // one payload pread each.
    constexpr int kEntries = 64;
    {
        DiskRunCache writer(root_, quietOpts());
        for (int i = 0; i < kEntries; ++i)
            ASSERT_TRUE(writer.store("scn|pol|s=" + std::to_string(i),
                                     sampleResult()));
    } // destructor flushes

    DiskRunCache reader(root_, quietOpts());
    scenarios::ScenarioResult out;
    for (int i = 0; i < kEntries; ++i)
        ASSERT_TRUE(reader.load("scn|pol|s=" + std::to_string(i), out));
    const store::StoreStats s = reader.ioStats();
    EXPECT_EQ(s.reads, static_cast<std::uint64_t>(kEntries));
    EXPECT_GT(s.read_bytes, 0u);
    EXPECT_LE(s.segments_opened,
              reader.segmentStore().shardCount())
        << "per-entry opens crept back into the warm path";
}

TEST_F(DiskRunCacheTest, FaultsInjectedFieldRoundTrips)
{
    DiskRunCache cache(root_);
    scenarios::ScenarioResult r = sampleResult();
    r.faults_injected = 424242;
    ASSERT_TRUE(cache.store("key-chaos", r));
    scenarios::ScenarioResult out;
    ASSERT_TRUE(cache.load("key-chaos", out));
    EXPECT_EQ(out.faults_injected, 424242u);
}

TEST_F(DiskRunCacheTest, DetachStopsSpilling)
{
    RunCache cache;
    cache.attachDiskCache(root_);
    cache.attachDiskCache("");
    (void)cache.getOrRun("k", [] {
        return scenarios::ScenarioResult();
    });
    EXPECT_EQ(cache.stats().disk_stores, 0u);
    EXPECT_FALSE(fs::exists(root_));
}

// ---------------------------------------------------------------------------
// Payload parser fuzzing: whatever the bytes, parseResult returns false or
// a result that survives its own round trip.  It never throws or crashes,
// because load() hands it any payload whose checksum matches.

/** Offsets of every u64 length or count field in serializeResult(r). */
std::vector<std::size_t>
lengthFieldOffsets(const scenarios::ScenarioResult &r)
{
    std::vector<std::size_t> at;
    std::size_t pos = 0;
    at.push_back(pos); // scenario_id length
    pos += 8 + r.scenario_id.size();
    at.push_back(pos); // policy_label length
    pos += 8 + r.policy_label.size() + 1 + 6 * 8 + 2 * 8;
    at.push_back(pos); // shard_ops count
    pos += 8 + 8 * r.shard_ops.size();
    for (const sim::TimeSeries *ts :
         {&r.perf_series, &r.conf_series, &r.tradeoff_series}) {
        at.push_back(pos); // series name length
        pos += 8 + ts->name().size();
        at.push_back(pos); // point count
        pos += 8 + 16 * ts->size();
    }
    EXPECT_EQ(pos, DiskRunCache::serializeResult(r).size());
    return at;
}

/** Parse @p bytes, reporting (not propagating) an exception. */
bool
parseNoThrow(const std::vector<char> &bytes, scenarios::ScenarioResult &out)
{
    try {
        return DiskRunCache::parseResult(bytes.data(), bytes.size(), out);
    } catch (const std::exception &e) {
        ADD_FAILURE() << "parseResult threw: " << e.what();
    }
    return false;
}

TEST(DiskRunCacheFuzz, ParseRejectsWrappingLengthField)
{
    scenarios::ScenarioResult r;
    r.scenario_id = "HB3813";
    r.policy_label = "SmartConf";
    r.perf_series = sim::TimeSeries("used_memory_mb");
    r.conf_series = sim::TimeSeries("max.queue.size");
    r.tradeoff_series = sim::TimeSeries("completed_ops");
    for (int t = 0; t < 64; ++t) {
        r.perf_series.record(t, 400.0 + t);
        r.conf_series.record(t, 100.0 - t);
        r.tradeoff_series.record(t, 17.0 * t);
    }
    const std::vector<char> clean = DiskRunCache::serializeResult(r);
    for (const std::size_t at : lengthFieldOffsets(r)) {
        for (std::uint64_t k = 1; k <= 64; ++k) {
            // pos + n wraps past 2^64 for these; n > size - pos does not.
            const std::uint64_t n = ~std::uint64_t{0} - (k - 1);
            std::vector<char> bytes = clean;
            std::memcpy(bytes.data() + at, &n, sizeof n);
            scenarios::ScenarioResult out;
            EXPECT_FALSE(parseNoThrow(bytes, out))
                << "field at " << at << " = 2^64-" << k;
        }
    }
}

TEST(DiskRunCacheFuzz, MutatedPayloadsParseCleanlyOrNotAtAll)
{
    // Real payloads: the SmartConf results of two scenarios, seed 1.
    std::vector<scenarios::ScenarioResult> real;
    for (const char *id : {"MR2820", "HD4995"})
        real.push_back(scenarios::makeScenario(id)->run(
            scenarios::Policy::smart(), 1));

    sim::Rng rng(0xf022);
    const auto randomByte = [&] {
        return static_cast<char>(rng.next() & 0xff);
    };
    int accepted = 0;
    int rejected = 0;
    for (const scenarios::ScenarioResult &base : real) {
        const std::vector<char> clean = DiskRunCache::serializeResult(base);
        const std::vector<std::size_t> fields = lengthFieldOffsets(base);
        for (int i = 0; i < 2000; ++i) {
            std::vector<char> bytes = clean;
            // Half the edits land in the first 256 bytes, where the
            // strings, scalars and the first series header live.
            const std::size_t span =
                rng.below(2) == 0 ? std::min<std::size_t>(256, bytes.size())
                                  : bytes.size();
            const std::size_t at = rng.below(span);
            switch (rng.below(4)) {
            case 0: { // overwrite 1-8 bytes
                const std::size_t n =
                    std::min<std::size_t>(rng.below(8) + 1,
                                          bytes.size() - at);
                for (std::size_t j = 0; j < n; ++j)
                    bytes[at + j] = randomByte();
                break;
            }
            case 1: { // insert 1-16 bytes
                std::vector<char> ins(rng.below(16) + 1);
                for (char &c : ins)
                    c = randomByte();
                bytes.insert(bytes.begin() + static_cast<long>(at),
                             ins.begin(), ins.end());
                break;
            }
            case 2: { // delete 1-16 bytes
                const std::size_t n =
                    std::min<std::size_t>(rng.below(16) + 1,
                                          bytes.size() - at);
                bytes.erase(bytes.begin() + static_cast<long>(at),
                            bytes.begin() + static_cast<long>(at + n));
                break;
            }
            default: { // a length or count field near 2^64
                const std::uint64_t n = ~std::uint64_t{0} - rng.below(64);
                std::memcpy(bytes.data() + fields[rng.below(fields.size())],
                            &n, sizeof n);
                break;
            }
            }
            scenarios::ScenarioResult out;
            if (!parseNoThrow(bytes, out)) {
                ++rejected;
                continue;
            }
            ++accepted;
            // An accepted mutant is a result like any other: its bytes
            // (a nonzero `violated` byte normalizes to 1) parse and
            // re-serialize to themselves.
            const std::vector<char> again = DiskRunCache::serializeResult(out);
            scenarios::ScenarioResult back;
            ASSERT_TRUE(parseNoThrow(again, back)) << "mutant " << i;
            ASSERT_EQ(DiskRunCache::serializeResult(back), again)
                << "mutant " << i;
        }
    }
    // Both outcomes must actually occur, or the loop tested one path.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace smartconf::exec
