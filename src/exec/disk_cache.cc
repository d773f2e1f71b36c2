#include "exec/disk_cache.h"

#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "sim/kernels.h"
#include "sim/metrics.h"

namespace smartconf::exec {

namespace {

/** Append-only buffer writer (native endianness: the cache is a
 *  single-machine artifact, never shipped between hosts).  The caller
 *  reserves the exact payload size, so every append lands in place. */
class Writer
{
  public:
    Writer(std::size_t size, std::vector<char> buf) : buf_(std::move(buf))
    {
        buf_.clear();
        buf_.reserve(size);
    }

    void raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const char *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void u8(std::uint8_t v) { raw(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }
    void series(const sim::TimeSeries &ts)
    {
        str(ts.name());
        u64(ts.points().size());
        // Point is {Tick, double}: two 8-byte scalars with no padding
        // (asserted below), so the curve round-trips as one block copy.
        // A result carries up to hundreds of thousands of points; bulk
        // I/O is what keeps warm process start-up in the market for
        // "faster than simulating".
        static_assert(sizeof(sim::TimeSeries::Point) == 16,
                      "Point must pack to 16 bytes for bulk series I/O");
        raw(ts.points().data(), ts.points().size() * 16);
    }
    std::vector<char> take() { return std::move(buf_); }

  private:
    std::vector<char> buf_;
};

/** Serialized size of a series: name, point count, 16 bytes a point. */
std::size_t
seriesBytes(const sim::TimeSeries &ts)
{
    return 8 + ts.name().size() + 8 + ts.points().size() * 16;
}

/** Exact serialized size of @p r, field by field as serializeResult
 *  writes them. */
std::size_t
payloadBytes(const scenarios::ScenarioResult &r)
{
    return (8 + r.scenario_id.size()) + (8 + r.policy_label.size()) +
           1 +                          // violated
           6 * 8 +                      // the six doubles
           2 * 8 +                      // ops_simulated, faults_injected
           8 + r.shard_ops.size() * 8 + // shard_ops
           seriesBytes(r.perf_series) + seriesBytes(r.conf_series) +
           seriesBytes(r.tradeoff_series);
}

/** Random-access view of the packed points of a serialized series.
 *  The bytes need not be aligned for Point, so each point is read with
 *  memcpy; a vector built from a pair of these is filled by one copy
 *  pass, without a zero-filled staging buffer. */
class PackedPoints
{
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = sim::TimeSeries::Point;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type *;
    using reference = value_type;

    explicit PackedPoints(const char *p) : p_(p) {}

    value_type operator*() const
    {
        value_type v;
        std::memcpy(&v, p_, sizeof v);
        return v;
    }
    PackedPoints &operator++()
    {
        p_ += sizeof(value_type);
        return *this;
    }
    PackedPoints operator++(int)
    {
        PackedPoints was = *this;
        ++*this;
        return was;
    }
    difference_type operator-(const PackedPoints &o) const
    {
        return (p_ - o.p_) / static_cast<difference_type>(sizeof(value_type));
    }
    bool operator==(const PackedPoints &o) const { return p_ == o.p_; }
    bool operator!=(const PackedPoints &o) const { return p_ != o.p_; }

  private:
    const char *p_;
};

/** Bounds-checked reader over a loaded buffer; any overrun fails the
 *  whole parse (torn or foreign bytes -> miss). */
class Reader
{
  public:
    Reader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    // Every bound is written as `n > size_ - pos_`: pos_ <= size_
    // always holds, so the subtraction cannot wrap, where `pos_ + n`
    // wraps for a torn length field near 2^64.
    bool raw(void *out, std::size_t n)
    {
        if (n > size_ - pos_)
            return false;
        if (n != 0) // an empty shard_ops vector hands in a null `out`
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }
    bool u64(std::uint64_t &v) { return raw(&v, sizeof v); }
    bool f64(double &v) { return raw(&v, sizeof v); }
    bool u8(std::uint8_t &v) { return raw(&v, sizeof v); }
    bool str(std::string &s)
    {
        std::uint64_t n = 0;
        if (!u64(n) || n > size_ - pos_)
            return false;
        s.assign(data_ + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return true;
    }
    bool series(sim::TimeSeries &ts)
    {
        std::string name;
        std::uint64_t n = 0;
        if (!str(name) || !u64(n))
            return false;
        // 16 bytes per point; reject counts the payload can't hold
        // before allocating (a torn length field must not OOM us).
        if (n > (size_ - pos_) / 16)
            return false;
        const char *first = data_ + pos_;
        pos_ += static_cast<std::size_t>(n) * 16;
        ts = sim::TimeSeries(std::move(name));
        ts.assign(std::vector<sim::TimeSeries::Point>(
            PackedPoints(first), PackedPoints(data_ + pos_)));
        return true;
    }
    bool atEnd() const { return pos_ == size_; }

    /** Unconsumed byte count. */
    std::size_t restSize() const { return size_ - pos_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace

DiskRunCache::DiskRunCache(std::string root)
    : DiskRunCache(std::move(root), store::SegmentStore::Options{})
{}

DiskRunCache::DiskRunCache(std::string root,
                           store::SegmentStore::Options opts)
{
    dir_ = versionDir(root);
    opts.format = kFormatVersion;
    opts.engine = kEngineVersion;
    store_ = std::make_unique<store::SegmentStore>(dir_, opts);
}

DiskRunCache::~DiskRunCache() = default; // ~SegmentStore flushes

std::string
DiskRunCache::versionDir(const std::string &root)
{
    return root + "/v" + std::to_string(kFormatVersion) + "-e" +
           std::to_string(kEngineVersion);
}

std::uint64_t
DiskRunCache::checksum64(const void *data, std::size_t len)
{
    return sim::kernels::checksum(data, len);
}

std::vector<char>
DiskRunCache::serializeResult(const scenarios::ScenarioResult &result)
{
    return serializeResult(result, {});
}

std::vector<char>
DiskRunCache::serializeResult(const scenarios::ScenarioResult &result,
                              std::vector<char> buffer)
{
    Writer payload(payloadBytes(result), std::move(buffer));
    payload.str(result.scenario_id);
    payload.str(result.policy_label);
    payload.u8(result.violated ? 1 : 0);
    payload.f64(result.violation_time_s);
    payload.f64(result.worst_goal_metric);
    payload.f64(result.goal_value);
    payload.f64(result.tradeoff);
    payload.f64(result.raw_tradeoff);
    payload.f64(result.mean_conf);
    payload.u64(result.ops_simulated);
    payload.u64(result.faults_injected);
    payload.u64(result.shard_ops.size());
    payload.raw(result.shard_ops.data(), result.shard_ops.size() * 8);
    payload.series(result.perf_series);
    payload.series(result.conf_series);
    payload.series(result.tradeoff_series);
    return payload.take();
}

bool
DiskRunCache::parseResult(const char *data, std::size_t len,
                          scenarios::ScenarioResult &out)
{
    Reader r(data, len);
    scenarios::ScenarioResult res;
    std::uint8_t violated = 0;
    const bool ok =
        r.str(res.scenario_id) && r.str(res.policy_label) &&
        r.u8(violated) && r.f64(res.violation_time_s) &&
        r.f64(res.worst_goal_metric) && r.f64(res.goal_value) &&
        r.f64(res.tradeoff) && r.f64(res.raw_tradeoff) &&
        r.f64(res.mean_conf) && r.u64(res.ops_simulated) &&
        r.u64(res.faults_injected);
    // Per-shard ops counters: u64 count then count u64 values.  The
    // count is bounded by the payload remainder before allocating.
    std::uint64_t shard_count = 0;
    bool shards_ok = ok && r.u64(shard_count) &&
                     shard_count <= r.restSize() / 8;
    if (shards_ok) {
        res.shard_ops.resize(static_cast<std::size_t>(shard_count));
        shards_ok = r.raw(res.shard_ops.data(), shard_count * 8);
    }
    if (!shards_ok || !r.series(res.perf_series) ||
        !r.series(res.conf_series) ||
        !r.series(res.tradeoff_series) || !r.atEnd())
        return false;
    res.violated = violated != 0;
    out = std::move(res);
    return true;
}

bool
DiskRunCache::load(const std::string &key,
                   scenarios::ScenarioResult &out)
{
    // The store validates the full key and the payload checksum before
    // returning bytes; a parse failure here means a serializer skew
    // inside one format version — still just a miss.
    std::vector<char> payload;
    if (!store_->get(key, payload))
        return false;
    return parseResult(payload.data(), payload.size(), out);
}

bool
DiskRunCache::store(const std::string &key,
                    const scenarios::ScenarioResult &result)
{
    if (!usable())
        return false;
    std::vector<char> payload = serializeResult(
        result, store_->takeBuffer(payloadBytes(result)));
    const std::uint64_t sum = checksum64(payload.data(), payload.size());
    return store_->put(key, std::move(payload), sum);
}

bool
DiskRunCache::flush()
{
    if (checked_ && cache_off_)
        return false;
    return store_->flush();
}

bool
DiskRunCache::usable()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!checked_) {
        // One sticky probe: if the versioned directory cannot exist
        // (e.g. the root is a regular file), every store() degrades to
        // cache-off instead of buffering bytes that can never land.
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        cache_off_ = static_cast<bool>(ec);
        checked_ = true;
    }
    return !cache_off_;
}

} // namespace smartconf::exec
