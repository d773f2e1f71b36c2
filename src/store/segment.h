#ifndef SMARTCONF_STORE_SEGMENT_H_
#define SMARTCONF_STORE_SEGMENT_H_

/**
 * @file
 * On-disk segment format for the sharded run store.
 *
 * A segment is an immutable, self-describing batch of (key, payload)
 * records published with one atomic rename.  The layout is designed
 * around the store's two promises:
 *
 *   1. a lookup is one in-memory binary search plus ONE pread of the
 *      payload bytes — no per-entry open, no record-header parse;
 *   2. any corruption degrades to a miss (or to the bit-exact original
 *      on undamaged entries), never to a wrong replay.
 *
 * File layout (all integers native-endian; the store is a single-
 * machine artifact like the v5 blob cache before it):
 *
 *   [SegmentHeader: 64 bytes, fixed offset 0, self-checksummed]
 *   [records:  klen u32 | plen u32 | seed u64 | payload_checksum u64
 *              | key bytes | payload bytes]*
 *   [index block @ header.index_off:
 *              count * IndexEntry (sorted by (hash, key))
 *              + concatenated key blob]
 *
 * The index block carries everything a lookup or a range query needs —
 * key hash, payload extent, payload checksum, the parsed-out seed and
 * the full key text — so queries over (scenario family, policy, seed
 * range, chaos spec) never touch a record.  Records remain fully
 * self-describing so `verify` can cross-check the index against them
 * and a future rebuild pass could regenerate a damaged index.
 *
 * Checksum coverage (sim/kernels::checksum, bit-identical across ISA
 * levels): the header checks itself, the index block (entries + key
 * blob) is checked as a whole before any entry is trusted, and each
 * payload is checked against the per-entry checksum on read.  Record
 * headers are deliberately outside the read path: a flip there leaves
 * lookups serving the still-intact payload.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace smartconf::store {

inline constexpr char kSegmentMagic[4] = {'S', 'C', 'S', 'G'};
inline constexpr std::uint32_t kSegmentHeaderVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 64;
inline constexpr std::size_t kRecordHeaderBytes = 24;
inline constexpr std::size_t kIndexEntryBytes = 48;

/** Fixed 64-byte segment header (offset 0). */
struct SegmentHeader
{
    char magic[4];
    std::uint32_t header_version = kSegmentHeaderVersion;
    std::uint32_t format = 0; ///< DiskRunCache::kFormatVersion
    std::uint32_t engine = 0; ///< DiskRunCache::kEngineVersion
    std::uint32_t shard = 0;
    std::uint32_t level = 0; ///< 0 = fresh, n = n-times compacted
    std::uint64_t count = 0; ///< records (== index entries)
    std::uint64_t index_off = 0;
    std::uint64_t index_len = 0;
    std::uint64_t index_checksum = 0;
    std::uint64_t header_checksum = 0; ///< over the preceding 56 bytes
};
static_assert(sizeof(SegmentHeader) == kSegmentHeaderBytes,
              "segment header must pack to exactly 64 bytes");

/** One index slot; sorted by (hash, key) inside the block. */
struct IndexEntry
{
    std::uint64_t hash = 0;         ///< fnv1a64 of the full key
    std::uint64_t payload_off = 0;  ///< absolute file offset
    std::uint64_t payload_checksum = 0;
    std::uint64_t seed = 0;         ///< parsed from the key ("|s=N")
    std::uint32_t payload_len = 0;
    std::uint32_t key_off = 0;      ///< into the key blob
    std::uint32_t key_len = 0;
    std::uint32_t flags = 0;        ///< bit 0: seed field is valid
};
static_assert(sizeof(IndexEntry) == kIndexEntryBytes,
              "index entry must pack to exactly 48 bytes");

inline constexpr std::uint32_t kIndexFlagSeedValid = 1u;

/** A parsed, validated segment index held in memory. */
struct SegmentIndex
{
    std::vector<IndexEntry> entries; ///< sorted by (hash, key)
    std::string key_blob;            ///< key_off/key_len point here

    std::string_view keyOf(const IndexEntry &e) const
    {
        return std::string_view(key_blob).substr(e.key_off, e.key_len);
    }
};

/** FNV-1a 64-bit over raw bytes (key hashing and sharding). */
std::uint64_t fnv1a64(const void *data, std::size_t len);
std::uint64_t fnv1a64(const std::string &s);

/** The store's block checksum (sim/kernels::checksum). */
std::uint64_t blockChecksum(const void *data, std::size_t len);

/** Checksum of every header field before header_checksum. */
std::uint64_t headerChecksum(const SegmentHeader &h);

/**
 * Accumulates records in memory and writes a complete segment file.
 * The caller publishes the written temp file with rename.
 */
class SegmentBuilder
{
  public:
    SegmentBuilder(std::uint32_t format, std::uint32_t engine,
                   std::uint32_t shard, std::uint32_t level);

    /**
     * Size the record region for @p records records whose keys and
     * payloads total @p key_and_payload_bytes, so the add() calls that
     * follow append in place instead of regrowing the region.
     */
    void reserve(std::size_t records, std::size_t key_and_payload_bytes);

    /** Append one record (payload checksum precomputed by the caller). */
    void add(const std::string &key, std::uint64_t seed,
             bool seed_valid, std::uint64_t payload_checksum,
             const void *payload, std::size_t payload_len);

    std::size_t count() const { return keys_.size(); }
    std::size_t pendingBytes() const { return records_.size(); }

    /**
     * Write header + records + sorted index to @p path (truncating).
     * @return true on a fully written and closed file.
     */
    bool writeFile(const std::string &path) const;

  private:
    std::uint32_t format_, engine_, shard_, level_;
    std::vector<char> records_; ///< serialized record region
    struct Pending
    {
        std::uint64_t hash;
        std::uint64_t payload_off_in_region; ///< relative, pre-header
        std::uint64_t payload_checksum;
        std::uint64_t seed;
        std::uint32_t payload_len;
        std::uint32_t flags;
    };
    std::vector<Pending> meta_;
    std::vector<std::string> keys_; ///< parallel to meta_
};

/**
 * Read and validate the fixed header of @p path.
 * @return false on IO error, bad magic, bad header checksum, or a
 *         version mismatch against (@p format, @p engine) when those
 *         are nonzero.
 */
bool readSegmentHeader(const std::string &path, SegmentHeader &out,
                       std::uint32_t format = 0,
                       std::uint32_t engine = 0);

/**
 * Read and validate the index block of an already-validated header
 * from an open fd.  @return false when the block is torn, overruns the
 * file, or fails its checksum — the segment is then unusable as a
 * whole (every entry degrades to a miss).
 */
bool readSegmentIndex(int fd, const SegmentHeader &h, SegmentIndex &out);

} // namespace smartconf::store

#endif // SMARTCONF_STORE_SEGMENT_H_
