#ifndef SMARTCONF_TESTS_SUPPORT_CACHE_FAULTS_H_
#define SMARTCONF_TESTS_SUPPORT_CACHE_FAULTS_H_

/**
 * @file
 * On-disk cache corruption helpers (test support; nothing outside
 * tests/ links them).
 *
 * DiskRunCache promises that any corruption degrades to a *miss*, never
 * to a wrong result, and that an unusable cache directory degrades to
 * cache-off, never to an aborted sweep.  These helpers manufacture the
 * corruption those promises are tested against: truncation (torn
 * write / full disk), bit flips (media errors), and directory blocking
 * (permission and layout failures).
 *
 * Deterministic on purpose: flipBit touches an exact (byte, bit), and
 * listSegmentFiles returns sorted paths, so a corruption campaign
 * driven off a seeded RNG replays identically.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace smartconf::fault {

/** Size of @p path in bytes; -1 when unreadable. */
std::int64_t fileSize(const std::string &path);

/** Truncate @p path to @p keep_bytes. @return success. */
bool truncateFile(const std::string &path, std::uint64_t keep_bytes);

/**
 * Flip bit @p bit (0-7) of byte @p offset in @p path.
 * @return false when the file is unreadable or @p offset out of range.
 */
bool flipBit(const std::string &path, std::uint64_t offset, unsigned bit);

/**
 * Make @p path impossible to use as a directory by creating a regular
 * file there (parents are created).  create_directories(path) then
 * fails on every platform and for every uid — unlike chmod tricks,
 * which root bypasses.  @return success.
 */
bool blockPathWithFile(const std::string &path);

// --- Segment-store corruption (format v6) ------------------------------
//
// The segment store makes the same promises per *segment*: a damaged
// header or index block rejects the whole segment (every entry a
// miss), and a damaged payload rejects that entry.

/** `seg-*.seg` files directly inside @p dir, sorted by path. */
std::vector<std::string> listSegmentFiles(const std::string &dir);

/**
 * Truncate the segment at @p path so its index block is torn: keeps
 * the header and records but cuts @p cut_bytes (>=1) off the tail.
 * Models a crash mid-publish that an atomic rename normally prevents
 * (e.g. a partially synced file after power loss). @return success.
 */
bool truncateSegmentTail(const std::string &path,
                         std::uint64_t cut_bytes);

/**
 * Flip one bit inside the segment's *index block* (offset taken from
 * the header's index_off).  The block checksum must then reject the
 * whole segment.  @return false when @p path has no readable header.
 */
bool flipIndexBit(const std::string &path, std::uint64_t byte_in_index,
                  unsigned bit);

} // namespace smartconf::fault

#endif // SMARTCONF_TESTS_SUPPORT_CACHE_FAULTS_H_
