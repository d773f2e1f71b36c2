#include "store/segment_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <unordered_set>

namespace smartconf::store {

namespace fs = std::filesystem;

namespace {

/** Shards a segment name can carry: two hex digits. */
constexpr std::size_t kMaxShards = 256;

/** A shard also seals once its pending payloads reach this size. */
constexpr std::size_t kFlushBytes = 4u << 20;

/** Listings one rescan takes at most while the directory keeps
 *  changing under it. */
constexpr int kScanAttempts = 8;

/** seg-<shard 2hex>-<seq 16hex>-<pid hex>.seg */
std::string
segmentName(std::uint32_t shard, std::uint64_t seq)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "seg-%02x-%016llx-%lx.seg", shard,
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long>(::getpid()));
    return buf;
}

bool
parseSegmentName(const std::string &name, std::uint32_t &shard,
                 std::uint64_t &seq)
{
    unsigned s = 0;
    unsigned long long q = 0;
    unsigned long pid = 0;
    char tail = 0;
    // %c catches trailing garbage after ".seg".
    if (std::sscanf(name.c_str(), "seg-%2x-%16llx-%lx.se%c%c", &s, &q,
                    &pid, &tail, &tail) != 4 ||
        tail != 'g')
        return false;
    shard = s;
    seq = q;
    return true;
}

/** Directory mtime as an opaque stamp; -2 when the dir is missing. */
std::int64_t
dirStamp(const std::string &dir)
{
    std::error_code ec;
    const auto t = fs::last_write_time(dir, ec);
    if (ec)
        return -2;
    return static_cast<std::int64_t>(t.time_since_epoch().count());
}

} // namespace

OpenSegment::~OpenSegment()
{
    if (fd >= 0)
        ::close(fd);
}

SegmentStore::SegmentStore(std::string dir)
    : SegmentStore(std::move(dir), Options{})
{}

SegmentStore::SegmentStore(std::string dir, Options opts)
    : dir_(std::move(dir)), opts_(opts)
{
    // Shard count must be a power of two so `hash & (n-1)` partitions,
    // and at most kMaxShards so every shard's segments parse back.
    std::size_t n = 1;
    while (n < opts_.shard_count && n < kMaxShards)
        n <<= 1;
    opts_.shard_count = n;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

SegmentStore::~SegmentStore()
{
    flush();
}

std::uint32_t
SegmentStore::shardOf(const std::string &key) const
{
    return static_cast<std::uint32_t>(fnv1a64(key) &
                                      (opts_.shard_count - 1));
}

bool
SegmentStore::seedOfKey(const std::string &key, std::uint64_t &seed)
{
    const std::size_t pos = key.rfind("|s=");
    if (pos == std::string::npos)
        return false;
    const char *p = key.c_str() + pos + 3;
    if (*p == '\0')
        return false;
    std::uint64_t v = 0;
    for (; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    seed = v;
    return true;
}

bool
SegmentStore::put(const std::string &key, std::vector<char> &&payload,
                  std::uint64_t payload_checksum)
{
    const std::uint32_t shard_id = shardOf(key);
    Shard &sh = *shards_[shard_id];
    const std::size_t payload_len = payload.size();
    bool full;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        auto it = sh.pending_slots.find(key);
        if (it != sh.pending_slots.end()) {
            // Duplicate put (two processes raced, or a re-store of a
            // pure result): overwrite in place.
            Shard::PendingEntry &e = sh.pending[it->second];
            sh.pending_bytes -= e.payload.size();
            e.checksum = payload_checksum;
            e.payload = std::move(payload);
        } else {
            Shard::PendingEntry e;
            e.seed_valid = seedOfKey(key, e.seed);
            if (!e.seed_valid)
                e.seed = 0;
            e.checksum = payload_checksum;
            e.payload = std::move(payload);
            sh.pending_slots.emplace(key, sh.pending.size());
            sh.pending_keys.push_back(key);
            sh.pending.push_back(std::move(e));
        }
        sh.pending_bytes += payload_len;
        full = pendingFull(sh);
    }
    if (!full)
        return true; // no system call on a put that does not seal

    rescanIfStale(); // the seq floor, before a name is claimed
    std::lock_guard<std::mutex> lock(sh.mu);
    // A racing put to this shard may have sealed it meanwhile.
    return !pendingFull(sh) || sealShardLocked(sh, shard_id);
}

bool
SegmentStore::pendingFull(const Shard &sh) const
{
    return sh.pending.size() >= opts_.flush_entries ||
           sh.pending_bytes >= kFlushBytes;
}

bool
SegmentStore::get(const std::string &key, std::vector<char> &out)
{
    const std::uint64_t hash = fnv1a64(key);
    const std::uint32_t shard_id =
        static_cast<std::uint32_t>(hash & (opts_.shard_count - 1));
    Shard &sh = *shards_[shard_id];
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.gets;
    }
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        auto it = sh.pending_slots.find(key);
        if (it != sh.pending_slots.end()) {
            out = sh.pending[it->second].payload;
            std::lock_guard<std::mutex> slock(stats_mu_);
            ++stats_.hits;
            return true;
        }
    }
    // A key in an already-open segment is served without looking at
    // the directory: entries are pure values, and a compacted-away
    // segment stays readable through the fd this instance holds.
    if (lookupSegments(key, hash, sh, out))
        return true;
    // Miss: another process may have published since our last scan,
    // or a concurrent get may be mid-scan.  rescanIfStale() returns
    // once any scan in flight is done, so the retry sees its segments.
    rescanIfStale();
    return lookupSegments(key, hash, sh, out);
}

bool
SegmentStore::lookupSegments(const std::string &key, std::uint64_t hash,
                             Shard &sh, std::vector<char> &out)
{
    std::vector<std::shared_ptr<OpenSegment>> segs;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        segs = sh.segments; // newest-first snapshot
    }
    for (const auto &seg : segs) {
        const auto &entries = seg->index.entries;
        auto it = std::lower_bound(
            entries.begin(), entries.end(), hash,
            [](const IndexEntry &e, std::uint64_t h) {
                return e.hash < h;
            });
        for (; it != entries.end() && it->hash == hash; ++it) {
            if (seg->index.keyOf(*it) != key)
                continue; // hash collision: keep looking
            out.resize(it->payload_len);
            const ::ssize_t n =
                ::pread(seg->fd, out.data(), out.size(),
                        static_cast<::off_t>(it->payload_off));
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.reads;
                stats_.read_bytes += it->payload_len;
            }
            if (n != static_cast<::ssize_t>(out.size()) ||
                blockChecksum(out.data(), out.size()) !=
                    it->payload_checksum) {
                // Torn segment tail or flipped payload bit: a miss,
                // and no damaged bytes are left in the caller's buffer.
                out.clear();
                return false;
            }
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.hits;
            return true;
        }
    }
    return false;
}

std::vector<char>
SegmentStore::takeBuffer(std::size_t bytes)
{
    std::vector<char> buf;
    {
        std::lock_guard<std::mutex> lock(spare_mu_);
        const auto it = spares_.lower_bound(bytes);
        if (it != spares_.end()) {
            spare_bytes_ -= it->first;
            buf = std::move(it->second);
            spares_.erase(it);
            return buf;
        }
    }
    buf.reserve(bytes);
    return buf;
}

void
SegmentStore::keepSpares(std::vector<Shard::PendingEntry> &entries)
{
    std::lock_guard<std::mutex> lock(spare_mu_);
    for (Shard::PendingEntry &e : entries) {
        const std::size_t cap = e.payload.capacity();
        if (cap == 0 || spare_bytes_ + cap > kSpareBytes)
            continue;
        e.payload.clear();
        spare_bytes_ += cap;
        spares_.emplace(cap, std::move(e.payload));
    }
}

bool
SegmentStore::sealShardLocked(Shard &sh, std::uint32_t shard_id)
{
    if (sh.pending.empty())
        return true;
    SegmentBuilder b(opts_.format, opts_.engine, shard_id, 0);
    std::size_t key_bytes = 0;
    for (const std::string &key : sh.pending_keys)
        key_bytes += key.size();
    b.reserve(sh.pending.size(), key_bytes + sh.pending_bytes);
    for (std::size_t i = 0; i < sh.pending.size(); ++i) {
        const Shard::PendingEntry &e = sh.pending[i];
        b.add(sh.pending_keys[i], e.seed, e.seed_valid, e.checksum,
              e.payload.data(), e.payload.size());
    }
    std::string name;
    if (!publishSegment(b, shard_id, &name))
        return false;
    // Keep read-your-writes: swap the pending buffer for the published
    // segment in one step, while this shard's lock is held.
    std::shared_ptr<OpenSegment> seg = openSegment(name);
    keepSpares(sh.pending);
    sh.pending.clear();
    sh.pending_keys.clear();
    sh.pending_slots.clear();
    sh.pending_bytes = 0;
    if (seg) {
        sh.segments.push_back(std::move(seg));
        std::sort(sh.segments.begin(), sh.segments.end(),
                  [](const auto &a, const auto &b2) {
                      return a->seq > b2->seq;
                  });
    }
    return true;
}

bool
SegmentStore::publishSegment(const SegmentBuilder &b,
                             std::uint32_t shard_id,
                             std::string *published_name)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        return false;
    // Claim a name nobody holds: seq + pid make collisions possible
    // only through pid reuse against leftover files, which the
    // existence check turns into a retry.
    std::string name;
    for (int attempt = 0; attempt < 64; ++attempt) {
        name = segmentName(shard_id, nextSeq());
        if (!fs::exists(dir_ + "/" + name, ec))
            break;
        name.clear();
    }
    if (name.empty())
        return false;
    const std::string tmp = dir_ + "/" + name + ".tmp";
    if (!b.writeFile(tmp)) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, dir_ + "/" + name, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.segments_published;
    }
    if (published_name)
        *published_name = name;
    return true;
}

std::shared_ptr<OpenSegment>
SegmentStore::openSegment(const std::string &name)
{
    const std::string path = dir_ + "/" + name;
    SegmentHeader h;
    if (!readSegmentHeader(path, h, opts_.format, opts_.engine))
        return nullptr;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    auto seg = std::make_shared<OpenSegment>();
    seg->fd = fd;
    if (!readSegmentIndex(fd, h, seg->index))
        return nullptr; // fd closed by ~OpenSegment
    seg->name = name;
    seg->header = h;
    std::uint32_t shard = 0;
    if (!parseSegmentName(name, shard, seg->seq))
        seg->seq = 0;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.segments_opened;
    }
    return seg;
}

void
SegmentStore::rescanIfStale()
{
    std::lock_guard<std::mutex> lock(store_mu_);
    const std::int64_t stamp = dirStamp(dir_);
    if (scanned_ && stamp == last_scan_stamp_)
        return;
    rescanLocked();
}

void
SegmentStore::rescanLocked()
{
    // A listing raced a change when the directory stamp moved while it
    // was read, or when a listed segment vanished before it was opened:
    // a compaction in another process can rename its merged segment in
    // behind the listing and unlink the inputs before they are opened,
    // and then this scan would hold neither copy.  List again, a
    // bounded number of times.
    int attempt = 1;
    while (!scanOnceLocked() && attempt < kScanAttempts)
        ++attempt;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.rescans;
}

bool
SegmentStore::scanOnceLocked()
{
    // Stamp *before* listing: a publish racing the scan then re-dirties
    // the stamp and the next miss rescans again.
    last_scan_stamp_ = dirStamp(dir_);

    std::vector<std::vector<std::string>> names(opts_.shard_count);
    std::uint64_t max_seq = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        std::uint32_t shard = 0;
        std::uint64_t seq = 0;
        if (!parseSegmentName(name, shard, seq) ||
            shard >= opts_.shard_count)
            continue;
        names[shard].push_back(name);
        max_seq = std::max(max_seq, seq);
    }
    // Lift the seq floor above every file on disk (ours or another
    // process's) so new names never collide with published ones.
    std::uint64_t cur = seq_.load();
    while (cur < max_seq && !seq_.compare_exchange_weak(cur, max_seq)) {
    }
    scanned_ = true;
    bool consistent = dirStamp(dir_) == last_scan_stamp_;

    for (std::uint32_t s = 0; s < opts_.shard_count; ++s) {
        Shard &sh = *shards_[s];
        std::lock_guard<std::mutex> lock(sh.mu);
        std::set<std::string> on_disk(names[s].begin(), names[s].end());
        // Drop vanished segments (compacted away by another process)…
        sh.segments.erase(
            std::remove_if(sh.segments.begin(), sh.segments.end(),
                           [&](const auto &seg) {
                               return on_disk.find(seg->name) ==
                                      on_disk.end();
                           }),
            sh.segments.end());
        // …and open newcomers.  A name that fails to open and still
        // exists is damaged: skip it — every entry it held degrades to
        // a miss.  One that no longer exists makes the listing stale.
        std::unordered_set<std::string> known;
        for (const auto &seg : sh.segments)
            known.insert(seg->name);
        for (const std::string &name : names[s]) {
            if (known.count(name))
                continue;
            if (auto seg = openSegment(name))
                sh.segments.push_back(std::move(seg));
            else if (!fs::exists(dir_ + "/" + name, ec))
                consistent = false;
        }
        std::sort(sh.segments.begin(), sh.segments.end(),
                  [](const auto &a, const auto &b) {
                      return a->seq > b->seq;
                  });
    }
    return consistent;
}

bool
SegmentStore::flush()
{
    bool ok = true;
    if (stats().pending_entries > 0) {
        rescanIfStale(); // the seq floor, before any name is claimed
        for (std::uint32_t s = 0; s < opts_.shard_count; ++s) {
            Shard &sh = *shards_[s];
            std::lock_guard<std::mutex> lock(sh.mu);
            if (!sealShardLocked(sh, s))
                ok = false;
        }
    }
    // Merge whether or not anything was pending: a store whose puts all
    // sealed reaches the threshold with an empty pending buffer.
    if (opts_.auto_compact)
        compactShards(kCompactMinSegments);
    return ok;
}

CompactionResult
SegmentStore::compact()
{
    {
        // The merge's own buffers reuse what the spares held.
        std::lock_guard<std::mutex> lock(spare_mu_);
        spares_.clear();
        spare_bytes_ = 0;
    }
    rescanIfStale();
    return compactShards(2);
}

CompactionResult
SegmentStore::compactShards(std::size_t min_segments)
{
    CompactionResult agg;
    for (std::uint32_t s = 0; s < opts_.shard_count; ++s) {
        std::size_t count;
        {
            Shard &sh = *shards_[s];
            std::lock_guard<std::mutex> lock(sh.mu);
            count = sh.segments.size();
        }
        if (count >= min_segments && compactShard(s, agg))
            ++agg.shards_compacted;
    }
    return agg;
}

bool
SegmentStore::compactShard(std::uint32_t shard_id,
                           CompactionResult &agg)
{
    Shard &sh = *shards_[shard_id];
    std::vector<std::shared_ptr<OpenSegment>> inputs;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        inputs = sh.segments; // newest-first
    }
    if (inputs.size() < 2)
        return false;

    // External-merge over the already-sorted per-segment indexes: a
    // cursor per input, always advancing the smallest (hash, key).
    // Duplicate keys are superseded by the newest segment's copy (the
    // values are pure, so this is tie-breaking, not semantics).
    std::uint32_t level = 0;
    std::uint64_t entries_in = 0;
    std::size_t record_bytes = 0;
    for (const auto &seg : inputs) {
        level = std::max(level, seg->header.level);
        entries_in += seg->header.count;
        for (const IndexEntry &e : seg->index.entries)
            record_bytes += std::size_t{e.key_len} + e.payload_len;
    }
    SegmentBuilder b(opts_.format, opts_.engine, shard_id, level + 1);
    // Sized for every input record; superseded duplicates only leave
    // the reservation partly unused.
    b.reserve(static_cast<std::size_t>(entries_in), record_bytes);

    std::vector<std::size_t> cursor(inputs.size(), 0);
    std::vector<char> payload;
    std::string last_key;
    bool have_last = false;
    for (;;) {
        // inputs is newest-first, so scanning in order and keeping the
        // first occurrence of a (hash, key) implements newest-wins.
        std::size_t pick = inputs.size();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (cursor[i] >= inputs[i]->index.entries.size())
                continue;
            if (pick == inputs.size()) {
                pick = i;
                continue;
            }
            const IndexEntry &a = inputs[i]->index.entries[cursor[i]];
            const IndexEntry &p =
                inputs[pick]->index.entries[cursor[pick]];
            if (a.hash < p.hash ||
                (a.hash == p.hash &&
                 inputs[i]->index.keyOf(a) <
                     inputs[pick]->index.keyOf(p)))
                pick = i;
        }
        if (pick == inputs.size())
            break;
        const IndexEntry &e = inputs[pick]->index.entries[cursor[pick]];
        const std::string key(inputs[pick]->index.keyOf(e));
        ++cursor[pick];
        if (have_last && key == last_key)
            continue; // superseded duplicate: dropped
        last_key = key;
        have_last = true;

        payload.resize(e.payload_len);
        const ::ssize_t n =
            ::pread(inputs[pick]->fd, payload.data(), payload.size(),
                    static_cast<::off_t>(e.payload_off));
        if (n != static_cast<::ssize_t>(payload.size()) ||
            blockChecksum(payload.data(), payload.size()) !=
                e.payload_checksum)
            continue; // damaged record: drop it (miss, not wrong data)
        b.add(key, e.seed, (e.flags & kIndexFlagSeedValid) != 0,
              e.payload_checksum, payload.data(), payload.size());
    }

    std::string name;
    if (!publishSegment(b, shard_id, &name))
        return false;
    std::shared_ptr<OpenSegment> merged = openSegment(name);
    if (!merged)
        return false;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        // Drop exactly the inputs; segments published mid-merge stay.
        sh.segments.erase(
            std::remove_if(sh.segments.begin(), sh.segments.end(),
                           [&](const auto &seg) {
                               for (const auto &in : inputs)
                                   if (in.get() == seg.get())
                                       return true;
                               return false;
                           }),
            sh.segments.end());
        sh.segments.push_back(merged);
        std::sort(sh.segments.begin(), sh.segments.end(),
                  [](const auto &a, const auto &b2) {
                      return a->seq > b2->seq;
                  });
    }
    // Unlink the inputs only after the merged segment is live.
    // In-flight readers keep their fds; listings from here on see the
    // merged segment.
    std::error_code ec;
    for (const auto &seg : inputs)
        fs::remove(dir_ + "/" + seg->name, ec);

    agg.segments_in += inputs.size();
    agg.segments_out += 1;
    agg.entries_in += entries_in;
    agg.entries_out += merged->header.count;
    agg.bytes_written +=
        merged->header.index_off + merged->header.index_len;
    return true;
}

VerifyResult
SegmentStore::verify()
{
    // Flush first so pending entries are on disk and checkable.
    flush();
    rescanIfStale();
    VerifyResult r;

    std::error_code ec;
    std::vector<std::string> names;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        std::uint32_t shard = 0;
        std::uint64_t seq = 0;
        if (parseSegmentName(name, shard, seq))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        const std::string path = dir_ + "/" + name;
        SegmentHeader h;
        if (!readSegmentHeader(path, h, opts_.format, opts_.engine)) {
            ++r.segments_corrupt;
            r.issues.push_back({name, "bad header (magic/checksum/"
                                      "version)"});
            continue;
        }
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            ++r.segments_corrupt;
            r.issues.push_back({name, "unreadable"});
            continue;
        }
        SegmentIndex idx;
        if (!readSegmentIndex(fd, h, idx)) {
            ++r.segments_corrupt;
            r.issues.push_back({name, "index block torn or checksum "
                                      "mismatch"});
            ::close(fd);
            continue;
        }
        // Records: re-read and re-checksum every payload, and walk the
        // self-describing record region to cross-check the index.
        bool seg_ok = true;
        std::vector<char> buf;
        for (const IndexEntry &e : idx.entries) {
            buf.resize(e.payload_len);
            const ::ssize_t n =
                ::pread(fd, buf.data(), buf.size(),
                        static_cast<::off_t>(e.payload_off));
            if (n != static_cast<::ssize_t>(buf.size()) ||
                blockChecksum(buf.data(), buf.size()) !=
                    e.payload_checksum ||
                fnv1a64(std::string(idx.keyOf(e))) != e.hash) {
                ++r.entries_corrupt;
                seg_ok = false;
            } else {
                ++r.entries_ok;
            }
        }
        // Record-region walk: headers must chain exactly to index_off.
        std::uint64_t off = kSegmentHeaderBytes;
        std::uint64_t walked = 0;
        while (off + kRecordHeaderBytes <= h.index_off) {
            char rh[kRecordHeaderBytes];
            if (::pread(fd, rh, sizeof rh,
                        static_cast<::off_t>(off)) !=
                static_cast<::ssize_t>(sizeof rh))
                break;
            std::uint32_t klen, plen;
            std::memcpy(&klen, rh, 4);
            std::memcpy(&plen, rh + 4, 4);
            const std::uint64_t next =
                off + kRecordHeaderBytes + klen + plen;
            if (next > h.index_off)
                break;
            off = next;
            ++walked;
        }
        if (off != h.index_off || walked != h.count) {
            seg_ok = false;
            r.issues.push_back({name, "record region does not chain "
                                      "to the index block"});
        }
        ::close(fd);
        if (seg_ok) {
            ++r.segments_ok;
        } else {
            ++r.segments_corrupt;
            if (r.issues.empty() || r.issues.back().segment != name)
                r.issues.push_back(
                    {name, "payload checksum mismatch"});
        }
    }
    return r;
}

void
SegmentStore::forEachEntry(
    const std::function<void(const IndexedEntry &)> &fn)
{
    rescanIfStale();
    std::unordered_set<std::string> seen;
    for (std::uint32_t s = 0; s < opts_.shard_count; ++s) {
        Shard &sh = *shards_[s];
        std::vector<std::shared_ptr<OpenSegment>> segs;
        {
            std::lock_guard<std::mutex> lock(sh.mu);
            segs = sh.segments;
            for (std::size_t i = 0; i < sh.pending.size(); ++i) {
                if (!seen.insert(sh.pending_keys[i]).second)
                    continue;
                IndexedEntry e;
                e.key = sh.pending_keys[i];
                e.seed = sh.pending[i].seed;
                e.seed_valid = sh.pending[i].seed_valid;
                e.payload_len = static_cast<std::uint32_t>(
                    sh.pending[i].payload.size());
                e.shard = s;
                fn(e);
            }
        }
        for (const auto &seg : segs) {
            for (const IndexEntry &ie : seg->index.entries) {
                const std::string key(seg->index.keyOf(ie));
                if (!seen.insert(key).second)
                    continue; // superseded by a newer segment
                IndexedEntry e;
                e.key = key;
                e.seed = ie.seed;
                e.seed_valid = (ie.flags & kIndexFlagSeedValid) != 0;
                e.payload_len = ie.payload_len;
                e.shard = s;
                e.segment = seg->name;
                fn(e);
            }
        }
    }
}

StoreStats
SegmentStore::stats() const
{
    StoreStats out;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        out = stats_;
    }
    out.pending_entries = 0;
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        out.pending_entries += sh->pending.size();
    }
    return out;
}

std::size_t
SegmentStore::segmentCount()
{
    rescanIfStale();
    std::size_t n = 0;
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        n += sh->segments.size();
    }
    return n;
}

} // namespace smartconf::store
