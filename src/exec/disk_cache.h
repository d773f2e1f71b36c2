#ifndef SMARTCONF_EXEC_DISK_CACHE_H_
#define SMARTCONF_EXEC_DISK_CACHE_H_

/**
 * @file
 * Persistent, versioned on-disk store for ScenarioResult.
 *
 * The in-memory RunCache dies with the process, so every fresh bench
 * or CI invocation re-simulates the full sweep even though simulations
 * are pure functions of (scenario, policy, seed).  DiskRunCache
 * persists computed results and loads them back in any later process,
 * turning the second invocation of `bench_sweep` into a replay.
 *
 * Since format v6 this class is a thin adapter over the sharded
 * segment store (src/store/): results are serialized to the same
 * payload byte layout as v5, then handed to store::SegmentStore, which
 * batches them into per-shard append-only segment files with a sorted
 * index block — a 50k-entry cache is dozens of files, a lookup is one
 * in-memory binary search plus one pread, and `smartconfctl` can
 * answer range queries over the index without simulating anything.
 *
 * Versioning discipline is unchanged: entries live under
 * `<root>/v<format>-e<engine>`, so bumping either knob orphans old
 * entries wholesale instead of mixing incompatible bytes:
 *
 *  - kFormatVersion changes when the on-disk layout changes;
 *  - kEngineVersion changes when the *simulation* changes — any edit
 *    that alters scenario outputs must bump it, or stale results would
 *    replay as fresh ones.
 *
 * Directories of other versions, the v5 one-file-per-entry layout
 * among them, are orphaned: nothing reads, migrates or deletes them.
 *
 * Safety properties carried over from v5, now enforced by the store:
 * the full uncompressed key is stored and compared on load (hash
 * collision -> miss), every payload carries a checksum verified before
 * parsing (bit flip -> miss, never a wrong curve), and all publishes
 * are atomic renames.  An unwritable cache directory degrades to
 * "no disk cache" rather than failing the run.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "scenarios/scenario.h"
#include "store/segment_store.h"

namespace smartconf::exec {

/** Persistent result store backed by store::SegmentStore. */
class DiskRunCache
{
  public:
    /**
     * Bump when the serialized byte layout changes.
     *
     * History: 1 = PR1 layout, 2 = payload checksum in the header +
     * faults_injected field, 3 = word-at-a-time payload checksum,
     * 4 = four-lane interleaved kernel checksum (sim/kernels.h),
     * 5 = per-shard ops counters (shard_ops vector after
     *     faults_injected),
     * 6 = sharded segment store (append-only segments + index blocks
     *     replace one file per entry; payload bytes unchanged from 5).
     */
    static constexpr std::uint32_t kFormatVersion = 6;

    /**
     * Bump when simulation outputs change (new scenario mechanics,
     * RNG stream changes, new ScenarioResult fields with meaning).
     *
     * History: 1 = PR1 runner, 2 = event-engine rewrite,
     * 3 = alias-table sampler + ops_simulated tracking,
     * 4 = YCSB struct-of-arrays draw order (coins/keys/sizes batched
     *     per tick instead of interleaved per op),
     * 5 = sharded data plane (jump-derived shard-local RNG streams in
     *     the workload generators and MapReduce workers).
     */
    static constexpr std::uint32_t kEngineVersion = 5;

    /**
     * Open (creating if needed) the store rooted at @p root.  Nothing
     * is written until the first store()/flush().
     */
    explicit DiskRunCache(std::string root);

    /** Same, with explicit store tuning (tests, bench harnesses). */
    DiskRunCache(std::string root, store::SegmentStore::Options opts);

    ~DiskRunCache(); ///< flushes buffered entries

    DiskRunCache(const DiskRunCache &) = delete;
    DiskRunCache &operator=(const DiskRunCache &) = delete;

    /**
     * Load the entry for @p key into @p out.
     * @return true on a hit; false on miss, version skew, torn or
     *         bit-flipped data, or key collision (all
     *         indistinguishable by design).
     */
    bool load(const std::string &key, scenarios::ScenarioResult &out);

    /**
     * Persist @p result under @p key (buffered; published in batches
     * as append-only segments, each by one atomic rename).  The
     * serialized payload is moved into the store's pending buffer, so
     * its bytes are written once here and copied once more at seal.
     * Best-effort: an unwritable root degrades to cache-off.
     * @return true when the entry was accepted.
     */
    bool store(const std::string &key,
               const scenarios::ScenarioResult &result);

    /** Publish all buffered entries as sealed segments now. */
    bool flush();

    /** Versioned directory entries live in (for tests/diagnostics). */
    const std::string &dir() const { return dir_; }

    /** The versioned directory for a root (current format/engine). */
    static std::string versionDir(const std::string &root);

    /** The backing segment store (queries, verify, compaction). */
    store::SegmentStore &segmentStore() { return *store_; }

    /** Store IO counters (reads, read bytes, segments opened, ...). */
    store::StoreStats ioStats() const { return store_->stats(); }

    /**
     * Serialize @p result to the payload byte layout (format 5/6 —
     * identical).  Exposed for tests and synthetic store fillers.
     */
    static std::vector<char>
    serializeResult(const scenarios::ScenarioResult &result);

    /** serializeResult into @p buffer (cleared first; its capacity is
     *  reused). */
    static std::vector<char>
    serializeResult(const scenarios::ScenarioResult &result,
                    std::vector<char> buffer);

    /** Parse a payload produced by serializeResult. @return validity. */
    static bool parseResult(const char *data, std::size_t len,
                            scenarios::ScenarioResult &out);

    /**
     * Payload checksum: the kernel layer's four-lane interleaved
     * FNV-1a-style hash (sim/kernels::checksum) — one scalar body at
     * every SIMD dispatch level.  The same function checks segment
     * headers and index blocks.
     */
    static std::uint64_t checksum64(const void *data, std::size_t len);

  private:
    bool usable(); ///< lazily create dir_; sticky cache-off on failure

    std::string dir_; ///< <root>/v<format>-e<engine>
    std::unique_ptr<store::SegmentStore> store_;

    std::mutex mu_; ///< guards the lazy usability probe
    bool checked_ = false;
    bool cache_off_ = false;
};

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_DISK_CACHE_H_
