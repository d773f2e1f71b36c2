#ifndef SMARTCONF_STORE_SEGMENT_STORE_H_
#define SMARTCONF_STORE_SEGMENT_STORE_H_

/**
 * @file
 * Sharded, compacted, queryable segment store for cached run results.
 *
 * Replaces the one-file-per-entry blob layout: entries are hashed into
 * a fixed power-of-two number of logical shards (independent of how
 * many processes write), buffered per shard, and published as
 * immutable append-only segment files — each carrying a sorted index
 * block (see store/segment.h) so a lookup costs one in-memory binary
 * search plus one pread of the payload.  50k entries land in dozens of
 * files instead of 50k.
 *
 * Multi-process discipline:
 *  - writers never touch a shared file: each process seals its own
 *    segments into uniquely named temp files and publishes them with
 *    one atomic rename — the same discipline the blob store used, now
 *    amortized over hundreds of entries per rename;
 *  - readers discover segments by directory listing (rescanned on a
 *    miss, a seal or a flush when the directory mtime has moved), so
 *    a concurrent writer's published segments become visible without
 *    any coordination.  The listing is the only record of which
 *    segments are live;
 *  - compaction merges a shard's sealed segments into one sorted
 *    higher-level segment (external-merge over the already-sorted
 *    indexes), publishes it by rename, and only then unlinks the
 *    inputs.  A reader races this safely: either it still holds the
 *    old fds (POSIX keeps the bytes alive), or its listing sees the
 *    merged segment.  A listing that missed the merged segment and
 *    then found its inputs gone (or saw the directory mtime move) is
 *    taken again, a bounded number of times; duplicate coverage during
 *    the swap window is harmless because entries are pure values and
 *    lookups stop at the newest match.
 *
 * Thread safety: all public methods are safe to call concurrently;
 * per-shard mutexes guard pending buffers and segment lists, a store
 * mutex guards scans.  The store starts no thread: with `auto_compact`
 * set, flush() merges every shard holding kCompactMinSegments or more
 * segments on the calling thread.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/segment.h"

namespace smartconf::store {

/** A published segment with its index resident in memory. */
struct OpenSegment
{
    std::string name; ///< file name (not path)
    std::uint64_t seq = 0;
    SegmentHeader header;
    SegmentIndex index;
    int fd = -1;

    ~OpenSegment();
    OpenSegment() = default;
    OpenSegment(const OpenSegment &) = delete;
    OpenSegment &operator=(const OpenSegment &) = delete;
};

/** Aggregate counters; all monotonically increasing per instance. */
struct StoreStats
{
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t reads = 0;      ///< payload preads served
    std::uint64_t read_bytes = 0; ///< payload bytes pread
    std::uint64_t segments_opened = 0;
    std::uint64_t segments_published = 0;
    std::uint64_t rescans = 0;
    std::uint64_t pending_entries = 0; ///< snapshot, not monotonic
};

struct CompactionResult
{
    std::size_t shards_compacted = 0;
    std::size_t segments_in = 0;
    std::size_t segments_out = 0;
    std::uint64_t entries_in = 0;
    std::uint64_t entries_out = 0; ///< after dedup
    std::uint64_t bytes_written = 0;
};

struct VerifyIssue
{
    std::string segment; ///< file name
    std::string what;
};

struct VerifyResult
{
    std::size_t segments_ok = 0;
    std::size_t segments_corrupt = 0;
    std::uint64_t entries_ok = 0;
    std::uint64_t entries_corrupt = 0;
    std::vector<VerifyIssue> issues;

    bool clean() const
    {
        return segments_corrupt == 0 && entries_corrupt == 0;
    }
};

/** One live index slot surfaced to queries. */
struct IndexedEntry
{
    std::string_view key;
    std::uint64_t seed = 0;
    bool seed_valid = false;
    std::uint32_t payload_len = 0;
    std::uint32_t shard = 0;
    std::string_view segment; ///< file name; empty = pending buffer
};

class SegmentStore
{
  public:
    struct Options
    {
        std::size_t shard_count = 16; ///< power of two (rounded up), <= 256
        std::size_t flush_entries = 256; ///< per-shard seal threshold
        bool auto_compact = true; ///< flush() merges full shards
        std::uint32_t format = 0;
        std::uint32_t engine = 0;
    };

    /**
     * Open (lazily creating) the store in @p dir — the *versioned*
     * directory, e.g. `<root>/v6-e5`.  Nothing is created on disk
     * until the first flush.
     */
    explicit SegmentStore(std::string dir);
    SegmentStore(std::string dir, Options opts);
    ~SegmentStore(); ///< flushes (and so may compact) pending entries

    /** Segments in one shard at which an auto_compact flush merges it. */
    static constexpr std::size_t kCompactMinSegments = 8;

    SegmentStore(const SegmentStore &) = delete;
    SegmentStore &operator=(const SegmentStore &) = delete;

    /**
     * Buffer @p payload under @p key; the bytes move into the pending
     * buffer uncopied.  @p payload_checksum is the caller's
     * whole-payload checksum (DiskRunCache::checksum64) and is
     * verified again on every read.  Seals and publishes the shard's
     * segment when the pending buffer crosses the flush threshold; a
     * put that does not seal makes no system call, and a seal first
     * rescans the directory, so the sealed segment's seq tops every
     * segment already published.  A put never compacts.
     * @return false when sealing was required and failed (unwritable
     *         directory).
     */
    bool put(const std::string &key, std::vector<char> &&payload,
             std::uint64_t payload_checksum);

    /**
     * An empty buffer of capacity @p bytes or more, for a put's
     * payload: the smallest payload buffer a seal released that fits,
     * else a new one.  A seal keeps the buffers it releases (up to
     * kSpareBytes of them) instead of freeing them: freeing a sealed
     * batch can leave a span at the heap top past malloc's trim
     * threshold, and the next batch's puts then fault every page of
     * their payloads in again.  compact() frees the spares first.
     */
    std::vector<char> takeBuffer(std::size_t bytes);

    /** Capacity kept in released payload buffers, at most. */
    static constexpr std::size_t kSpareBytes = std::size_t{16} << 20;

    /**
     * Fetch the payload stored under @p key into @p out.  Checks the
     * pending buffer, then the open segments newest-first, preading
     * the payload straight into @p out; validates the full key and the
     * payload checksum.  Only a miss looks at the directory: it
     * rescans if the directory changed, then looks up once more.
     * @return true on a hit; on a miss @p out holds no payload bytes
     *         from this call.
     */
    bool get(const std::string &key, std::vector<char> &out);

    /**
     * Publish every shard's pending entries as sealed segments.  With
     * `auto_compact`, then merge (on this thread) every shard holding
     * kCompactMinSegments or more segments, pending entries or not.
     * @return false when a seal failed.
     */
    bool flush();

    /** Synchronously merge every shard with more than one segment. */
    CompactionResult compact();

    /** Full-store scan: headers, indexes, records. */
    VerifyResult verify();

    /**
     * Invoke @p fn for every live index entry (pending + published,
     * newest wins on duplicate keys).  Serves range queries with zero
     * payload IO.  The views passed to @p fn die with the call.
     */
    void forEachEntry(const std::function<void(const IndexedEntry &)> &fn);

    StoreStats stats() const;
    const std::string &dir() const { return dir_; }
    std::size_t shardCount() const { return opts_.shard_count; }

    /** Published segment count (all shards); rescans first. */
    std::size_t segmentCount();

    /** Shard for a key: fnv1a64(key) masked to the shard count. */
    std::uint32_t shardOf(const std::string &key) const;

    /** Parse `|s=<N>` from a run-cache key. @return validity. */
    static bool seedOfKey(const std::string &key, std::uint64_t &seed);

  private:
    struct Shard
    {
        mutable std::mutex mu;
        // Pending entries in insertion order with a key->slot map so a
        // racing duplicate put overwrites instead of duplicating.
        std::vector<std::string> pending_keys;
        std::unordered_map<std::string, std::size_t> pending_slots;
        struct PendingEntry
        {
            std::uint64_t seed;
            bool seed_valid;
            std::uint64_t checksum;
            std::vector<char> payload;
        };
        std::vector<PendingEntry> pending;
        std::size_t pending_bytes = 0;
        // Newest-first (descending seq).
        std::vector<std::shared_ptr<OpenSegment>> segments;
    };

    bool pendingFull(const Shard &sh) const; ///< seal threshold hit
    bool sealShardLocked(Shard &sh, std::uint32_t shard_id);
    /** Keep the payload buffers of sealed @p entries for takeBuffer. */
    void keepSpares(std::vector<Shard::PendingEntry> &entries);
    bool publishSegment(const SegmentBuilder &b, std::uint32_t shard_id,
                        std::string *published_name);
    std::shared_ptr<OpenSegment> openSegment(const std::string &name);
    void rescanIfStale();
    void rescanLocked();
    /** One listing; false if it raced a change (see rescanLocked). */
    bool scanOnceLocked();
    bool lookupSegments(const std::string &key, std::uint64_t hash,
                        Shard &sh, std::vector<char> &out);
    CompactionResult compactShards(std::size_t min_segments);
    bool compactShard(std::uint32_t shard_id, CompactionResult &agg);
    std::uint64_t nextSeq() { return seq_.fetch_add(1) + 1; }

    std::string dir_;
    Options opts_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex store_mu_; ///< scan state + seq floor
    bool scanned_ = false;
    std::int64_t last_scan_stamp_ = -1;
    std::atomic<std::uint64_t> seq_{0};

    mutable std::mutex stats_mu_;
    StoreStats stats_;

    std::mutex spare_mu_;
    std::multimap<std::size_t, std::vector<char>> spares_; ///< by capacity
    std::size_t spare_bytes_ = 0;
};

} // namespace smartconf::store

#endif // SMARTCONF_STORE_SEGMENT_STORE_H_
