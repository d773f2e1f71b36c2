/**
 * @file
 * Microbenchmarks for the simulation substrate (google-benchmark).
 *
 * Every figure, ablation, and sweep in this repo runs through the
 * metrics and Zipfian hot paths measured here — the micro-level
 * counterpart to bench_micro_controller.
 */

#include <benchmark/benchmark.h>

#include "sim/metrics.h"
#include "sim/rng.h"

namespace {

using namespace smartconf;

/** Repeated percentile queries between mutations: first query after a
 *  record() pays nth_element, later ones hit the sorted cache. */
void
BM_HistogramPercentile(benchmark::State &state)
{
    sim::Histogram h;
    h.reserve(10000);
    sim::Rng rng(42);
    for (int i = 0; i < 10000; ++i)
        h.record(rng.uniform(0.0, 100.0));
    (void)h.percentile(50.0); // warm the scratch buffer

    for (auto _ : state) {
        const double p50 = h.percentile(50.0);
        const double p99 = h.percentile(99.0);
        benchmark::DoNotOptimize(p50 + p99);
    }
}
BENCHMARK(BM_HistogramPercentile);

/** Percentile immediately after each mutation: the nth_element path. */
void
BM_HistogramPercentileAfterRecord(benchmark::State &state)
{
    sim::Histogram h;
    h.reserve(20000);
    sim::Rng rng(42);
    for (int i = 0; i < 10000; ++i)
        h.record(rng.uniform(0.0, 100.0));

    double x = 0.0;
    for (auto _ : state) {
        h.record(x);
        x += 0.01;
        benchmark::DoNotOptimize(h.percentile(99.0));
    }
}
BENCHMARK(BM_HistogramPercentileAfterRecord);

/** Zipfian draw with the shared zeta table warm (the YCSB key path). */
void
BM_ZipfianDraw(benchmark::State &state)
{
    sim::Rng rng(7);
    sim::ZipfianGenerator zipf(100000, 0.99);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
}
BENCHMARK(BM_ZipfianDraw);

/** Zipfian construction with the process-wide zeta cache warm: what
 *  every YcsbGenerator after the first pays. */
void
BM_ZipfianConstructCached(benchmark::State &state)
{
    sim::Rng rng(7);
    { sim::ZipfianGenerator warm(100000, 0.99); (void)warm; }
    for (auto _ : state) {
        sim::ZipfianGenerator zipf(100000, 0.99);
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
}
BENCHMARK(BM_ZipfianConstructCached);

} // namespace

BENCHMARK_MAIN();
