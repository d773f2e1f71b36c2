#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * The benchmark's own toolkit: order statistics with the reporting rule,
 * in-memory spans with self time, and the output digest.  Nothing here
 * calls into the program; workloads.h does.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------- stats

/** Linear-interpolated quantile (0 <= q <= 1); 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * A timing as reported: the median, plus the highest percentile of
 * {90, 99, 99.9, 99.99} that still has at least ten samples beyond it
 * (tail_pct = 50 and tail = median when none has), and the sample count.
 */
struct Summary
{
    double median = 0.0;
    double tail_pct = 50.0;
    double tail = 0.0;
    std::size_t n = 0;
};

Summary summarize(const std::vector<double> &samples);

// -------------------------------------------------------------- tracing

/**
 * One timed call.  `parent` is the enclosing span (0 = root); `job` is
 * shared by every span of one sweep job (0 = not part of a job).
 */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t job = 0;
    const char *name = ""; ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * In-memory span log.  Safe to record from sweep worker threads; spans
 * are written out only when the benchmark ends.
 */
class Tracer
{
  public:
    /** A fresh span or job id (never 0). */
    std::uint32_t newId();

    void record(const Span &s);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write spans as CSV (id,parent,job,name,start_ns,end_ns). */
    bool writeCsv(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::uint32_t next_id_ = 0;
    std::vector<Span> spans_;
};

/** Records one span on destruction; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, std::uint32_t parent = 0,
               std::uint32_t job = 0)
        : t_(t)
    {
        if (t_) {
            s_.id = t_->newId();
            s_.parent = parent;
            s_.job = job;
            s_.name = name;
            s_.start_ns = nowNs();
        }
    }
    ~ScopedSpan()
    {
        if (t_) {
            s_.end_ns = nowNs();
            t_->record(s_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return s_.id; }

  private:
    Tracer *t_;
    Span s_;
};

/**
 * Self time of every span, in input order: its duration minus the part
 * of its interval that the union of its children's intervals covers.
 * Children may overlap one another (parallel jobs under one sweep).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

// --------------------------------------------------------------- digest

/** FNV-1a-style 64-bit hash, 8-byte words then tail bytes, from @p h. */
std::uint64_t digestBytes(std::uint64_t h, const void *data,
                          std::size_t len);

inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
