#include "store/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "sim/kernels.h"

namespace smartconf::store {

std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

std::uint64_t
blockChecksum(const void *data, std::size_t len)
{
    return sim::kernels::checksum(data, len);
}

std::uint64_t
headerChecksum(const SegmentHeader &h)
{
    return blockChecksum(&h, kSegmentHeaderBytes - sizeof h.header_checksum);
}

SegmentBuilder::SegmentBuilder(std::uint32_t format,
                               std::uint32_t engine,
                               std::uint32_t shard,
                               std::uint32_t level)
    : format_(format), engine_(engine), shard_(shard), level_(level)
{}

void
SegmentBuilder::reserve(std::size_t records,
                        std::size_t key_and_payload_bytes)
{
    records_.reserve(records * kRecordHeaderBytes + key_and_payload_bytes);
    meta_.reserve(records);
    keys_.reserve(records);
}

void
SegmentBuilder::add(const std::string &key, std::uint64_t seed,
                    bool seed_valid, std::uint64_t payload_checksum,
                    const void *payload, std::size_t payload_len)
{
    const std::uint32_t klen = static_cast<std::uint32_t>(key.size());
    const std::uint32_t plen = static_cast<std::uint32_t>(payload_len);

    // Record header: klen, plen, seed, checksum — then key, payload,
    // each appended once (no zero-filled resize).
    char header[kRecordHeaderBytes];
    std::memcpy(header, &klen, 4);
    std::memcpy(header + 4, &plen, 4);
    std::memcpy(header + 8, &seed, 8);
    std::memcpy(header + 16, &payload_checksum, 8);
    const std::size_t rec_off = records_.size();
    const auto *p = static_cast<const char *>(payload);
    records_.insert(records_.end(), header, header + kRecordHeaderBytes);
    records_.insert(records_.end(), key.begin(), key.end());
    records_.insert(records_.end(), p, p + plen);

    Pending m;
    m.hash = fnv1a64(key);
    m.payload_off_in_region = rec_off + kRecordHeaderBytes + klen;
    m.payload_checksum = payload_checksum;
    m.seed = seed;
    m.payload_len = plen;
    m.flags = seed_valid ? kIndexFlagSeedValid : 0;
    meta_.push_back(m);
    keys_.push_back(key);
}

bool
SegmentBuilder::writeFile(const std::string &path) const
{
    // Sort index slots by (hash, key) so lookups can binary-search and
    // compaction can stream-merge.  The record region keeps insertion
    // order — only the index is sorted.
    std::vector<std::size_t> order(meta_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (meta_[a].hash != meta_[b].hash)
                      return meta_[a].hash < meta_[b].hash;
                  return keys_[a] < keys_[b];
              });

    std::vector<char> index;
    index.resize(meta_.size() * kIndexEntryBytes);
    std::string blob;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Pending &m = meta_[order[i]];
        IndexEntry e;
        e.hash = m.hash;
        e.payload_off = kSegmentHeaderBytes + m.payload_off_in_region;
        e.payload_checksum = m.payload_checksum;
        e.seed = m.seed;
        e.payload_len = m.payload_len;
        e.key_off = static_cast<std::uint32_t>(blob.size());
        e.key_len = static_cast<std::uint32_t>(keys_[order[i]].size());
        e.flags = m.flags;
        std::memcpy(index.data() + i * kIndexEntryBytes, &e,
                    kIndexEntryBytes);
        blob += keys_[order[i]];
    }
    const std::size_t entries_bytes = index.size();
    index.insert(index.end(), blob.begin(), blob.end());
    (void)entries_bytes;

    SegmentHeader h;
    std::memcpy(h.magic, kSegmentMagic, 4);
    h.header_version = kSegmentHeaderVersion;
    h.format = format_;
    h.engine = engine_;
    h.shard = shard_;
    h.level = level_;
    h.count = meta_.size();
    h.index_off = kSegmentHeaderBytes + records_.size();
    h.index_len = index.size();
    h.index_checksum = blockChecksum(index.data(), index.size());
    h.header_checksum = headerChecksum(h);

    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        return false;
    auto writeAll = [fd](const void *data, std::size_t len) {
        const char *p = static_cast<const char *>(data);
        while (len > 0) {
            const ::ssize_t n = ::write(fd, p, len);
            if (n <= 0)
                return false;
            p += n;
            len -= static_cast<std::size_t>(n);
        }
        return true;
    };
    const bool ok = writeAll(&h, kSegmentHeaderBytes) &&
                    writeAll(records_.data(), records_.size()) &&
                    writeAll(index.data(), index.size());
    return (::close(fd) == 0) && ok;
}

bool
readSegmentHeader(const std::string &path, SegmentHeader &out,
                  std::uint32_t format, std::uint32_t engine)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    SegmentHeader h;
    const ::ssize_t n = ::pread(fd, &h, kSegmentHeaderBytes, 0);
    ::close(fd);
    if (n != static_cast<::ssize_t>(kSegmentHeaderBytes))
        return false;
    if (std::memcmp(h.magic, kSegmentMagic, 4) != 0 ||
        h.header_version != kSegmentHeaderVersion)
        return false;
    if (h.header_checksum != headerChecksum(h))
        return false;
    if (format != 0 && h.format != format)
        return false;
    if (engine != 0 && h.engine != engine)
        return false;
    out = h;
    return true;
}

bool
readSegmentIndex(int fd, const SegmentHeader &h, SegmentIndex &out)
{
    // Bound the allocation by the declared block size; the checksum
    // then proves the block is exactly what the writer sealed.
    if (h.index_len < h.count * kIndexEntryBytes)
        return false;
    std::vector<char> block(h.index_len);
    const ::ssize_t n =
        ::pread(fd, block.data(), block.size(),
                static_cast<::off_t>(h.index_off));
    if (n != static_cast<::ssize_t>(block.size()))
        return false;
    if (blockChecksum(block.data(), block.size()) != h.index_checksum)
        return false;

    const std::size_t entries_bytes =
        static_cast<std::size_t>(h.count) * kIndexEntryBytes;
    const std::size_t blob_bytes = block.size() - entries_bytes;
    SegmentIndex idx;
    idx.entries.resize(static_cast<std::size_t>(h.count));
    std::memcpy(idx.entries.data(), block.data(), entries_bytes);
    idx.key_blob.assign(block.data() + entries_bytes, blob_bytes);
    // Structural validation: every entry's key and payload extents must
    // land inside their regions.  The checksum already passed, so a
    // failure here means a writer bug, not media damage — still a miss.
    for (const IndexEntry &e : idx.entries) {
        if (static_cast<std::size_t>(e.key_off) + e.key_len >
            idx.key_blob.size())
            return false;
        if (e.payload_off < kSegmentHeaderBytes ||
            e.payload_off + e.payload_len > h.index_off)
            return false;
    }
    out = std::move(idx);
    return true;
}

} // namespace smartconf::store
