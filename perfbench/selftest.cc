/**
 * @file
 * Self-tests of the benchmark's own code: the percentile rule, span
 * self time, and that the output digests repeat.  Exit code 0 = pass.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // unsorted on purpose
    return v;
}

void
percentileRule()
{
    // 99 samples: p90 would leave 9.9 beyond it, so only the median.
    Summary s = summarize(ramp(99));
    check(s.n == 99 && s.tail_pct == 50.0 && s.tail == s.median,
          "99 samples report the median only");
    check(s.median == 50.0, "median of 1..99");

    s = summarize(ramp(100));
    check(s.tail_pct == 90.0, "100 samples reach p90");
    check(s.tail > 90.0 && s.tail < 91.0, "p90 of 1..100 interpolates");
    std::size_t beyond = 0;
    for (const double v : ramp(100))
        beyond += v > s.tail;
    check(beyond >= 10, "at least ten samples beyond the tail");

    check(summarize(ramp(999)).tail_pct == 90.0, "999 samples stop at p90");
    check(summarize(ramp(1000)).tail_pct == 99.0, "1000 samples reach p99");
    check(summarize(ramp(10000)).tail_pct == 99.9,
          "10000 samples reach p99.9");
    check(summarize({}).n == 0 && summarize({}).median == 0.0,
          "no samples");
}

void
selfTime()
{
    // Parent [0, 100] with overlapping children [10, 30] and [20, 50],
    // one running past its end [90, 120], and a grandchild [12, 18].
    std::vector<Span> spans = {
        {1, 0, 7, "parent", 0, 100},  {2, 1, 7, "a", 10, 30},
        {3, 1, 7, "b", 20, 50},       {4, 1, 7, "c", 90, 120},
        {5, 2, 7, "a.child", 12, 18},
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    check(self[0] == 100 - 40 - 10, "parent self time = 50");
    check(self[1] == 20 - 6, "child self time minus grandchild");
    check(self[2] == 30 && self[3] == 30 && self[4] == 6,
          "leaf self time = duration");

    Tracer t;
    const std::uint32_t a = t.newId(), b = t.newId();
    check(a != 0 && b != a, "span ids are fresh and non-zero");
    {
        ScopedSpan outer(&t, "outer");
        ScopedSpan inner(&t, "inner", outer.id());
    }
    const std::vector<Span> rec = t.spans();
    check(rec.size() == 2 && rec[0].parent == rec[1].id,
          "scoped spans nest");
    check(rec[1].start_ns <= rec[0].start_ns && rec[0].end_ns <= rec[1].end_ns,
          "inner span lies inside outer");
    ScopedSpan off(nullptr, "off"); // records nothing, must not crash
}

void
digests()
{
    check(digestBytes(kDigestSeed, "abcdefghi", 9) !=
              digestBytes(kDigestSeed, "abcdefghj", 9),
          "digest sees the tail byte");
    check(digestBytes(kDigestSeed, "abcdefghi", 9) ==
              digestBytes(kDigestSeed, "abcdefghi", 9),
          "digest is a function");

    // Repeats reproduce the first pass, at any worker count and traced.
    const SweepPass a = runSweepPass(7, 1, 2, nullptr);
    const SweepPass b = runSweepPass(7, 1, 1, nullptr);
    Tracer t;
    const SweepPass c = runSweepPass(7, 1, 2, &t);
    check(a.failed == 0 && a.jobs == 18, "sweep pass runs 18 jobs");
    check(a.digest == b.digest && a.digest == c.digest,
          "sweep digest repeats across workers and tracing");
    check(!c.samples.empty() && c.busy_frac > 0.0,
          "traced pass records job spans");
    check(runSweepPass(8, 1, 2, nullptr).digest != a.digest,
          "another seed range changes the sweep digest");

    auto pool = std::make_unique<smartconf::exec::ThreadPool>(2);
    const FleetRun f1 = runFleetOnce(1000, 40, 3, true, pool.get(), nullptr);
    const FleetRun f2 = runFleetOnce(1000, 40, 3, true, nullptr, nullptr);
    check(!f1.failed && f1.digest == f2.digest,
          "fleet digest repeats across executors");
    check(runFleetOnce(1000, 40, 4, true, nullptr, nullptr).digest !=
              f1.digest,
          "another seed changes the fleet digest");
}

} // namespace

int
main()
{
    percentileRule();
    selfTime();
    digests();
    if (failures == 0)
        std::printf("perfbench selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
