#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Summary
summarize(const std::vector<double> &samples)
{
    Summary s;
    s.n = samples.size();
    s.median = quantile(samples, 0.5);
    s.tail = s.median;
    // Percentile 100 * (1 - 1/d) leaves n/d samples beyond it; keep the
    // highest one that leaves at least ten.  Integer test: no rounding.
    for (const std::size_t d : {10000u, 1000u, 100u, 10u}) {
        if (s.n >= 10 * d) {
            s.tail_pct = 100.0 * (1.0 - 1.0 / static_cast<double>(d));
            s.tail = quantile(samples, 1.0 - 1.0 / static_cast<double>(d));
            break;
        }
    }
    return s;
}

std::uint32_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id,parent,job,name,start_ns,end_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span &s : spans_)
        std::fprintf(f, "%u,%u,%u,%s,%lld,%lld\n", s.id, s.parent, s.job,
                     s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::uint64_t
digestBytes(std::uint64_t h, const void *data, std::size_t len)
{
    // Word-at-a-time: a sweep pass serializes ~60 MB of results.
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * kPrime;
    }
    for (; i < len; ++i)
        h = (h ^ p[i]) * kPrime;
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
