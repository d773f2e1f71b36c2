/**
 * @file
 * Microbenchmarks for the simulation substrate (google-benchmark).
 *
 * Every YCSB-driven figure, ablation, and sweep in this repo runs
 * through the Zipfian hot paths measured here — the micro-level
 * counterpart to bench_micro_controller.
 */

#include <benchmark/benchmark.h>

#include "sim/rng.h"

namespace {

using namespace smartconf;

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
