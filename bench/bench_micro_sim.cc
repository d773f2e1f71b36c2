/**
 * @file
 * Microbenchmarks for the simulation substrate (google-benchmark).
 *
 * The Zipfian draw is the fleet's per-epoch traffic path; the
 * per-tick generator benches are the workload layer of every sweep,
 * measured without running one — the micro-level counterpart to
 * bench_micro_controller.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "sim/rng.h"
#include "workload/dfsio.h"
#include "workload/sharded.h"
#include "workload/tape.h"

namespace {

using namespace smartconf;

/** Zipfian draw with the shared zeta table warm (the fleet's traffic
 *  path). */
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
 *  every fleet run after the first pays. */
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

/**
 * One ShardedYcsbGenerator tick at a mean of range(0) ops: 4 and 10
 * are the kvstore plants' rates (CA6059, HB3813, HB6728), 380 a
 * multi-block tick.  Reported per op.
 */
void
BM_ShardedYcsbTick(benchmark::State &state)
{
    workload::YcsbParams p;
    p.ops_per_tick = static_cast<double>(state.range(0));
    workload::ShardedYcsbGenerator gen(p, sim::Rng(7));
    std::vector<workload::Op> ops;
    for (auto _ : state) {
        gen.tickInto(ops);
        benchmark::DoNotOptimize(ops.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(gen.generated()));
}
BENCHMARK(BM_ShardedYcsbTick)->Arg(4)->Arg(10)->Arg(380);

/** Ticks per tape in the YcsbTape benches (a run is 6000-7000). */
constexpr sim::Tick kTapeTicks = 1000;

/**
 * Recording a YcsbTape of kTapeTicks ticks at a mean of range(0) ops
 * a tick, a fresh tape each iteration, as the first policy of a sweep
 * group records it.  Reported per op: the excess over
 * BM_ShardedYcsbTick at the same rate is the recording cost.
 */
void
BM_YcsbTapeRecord(benchmark::State &state)
{
    workload::YcsbParams p;
    p.ops_per_tick = static_cast<double>(state.range(0));
    std::uint64_t seed = 7, ops = 0;
    for (auto _ : state) {
        workload::YcsbTape tape(p, sim::Rng(seed++));
        for (sim::Tick t = 0; t < kTapeTicks; ++t)
            benchmark::DoNotOptimize(tape.tick(t).data());
        ops += tape.generated(kTapeTicks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_YcsbTapeRecord)->Arg(4)->Arg(10)->Arg(380);

/** Replaying a recorded tape, as every later policy of the group
 *  reads it.  Reported per op. */
void
BM_YcsbTapeReplay(benchmark::State &state)
{
    workload::YcsbParams p;
    p.ops_per_tick = static_cast<double>(state.range(0));
    workload::YcsbTape tape(p, sim::Rng(7));
    for (sim::Tick t = 0; t < kTapeTicks; ++t)
        tape.tick(t);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (sim::Tick t = 0; t < kTapeTicks; ++t)
            benchmark::DoNotOptimize(tape.tick(t).data());
        ops += tape.generated(kTapeTicks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_YcsbTapeReplay)->Arg(4)->Arg(10)->Arg(380);

/** One DfsioGenerator tick at HD4995's 30 writes, du every 300
 *  ticks.  Reported per request. */
void
BM_DfsioTick(benchmark::State &state)
{
    workload::DfsioParams p;
    p.writes_per_tick = 30.0;
    workload::DfsioGenerator gen(p, sim::Rng(7));
    sim::Tick t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.tick(t++));
    state.SetItemsProcessed(static_cast<std::int64_t>(gen.generated()));
}
BENCHMARK(BM_DfsioTick);

} // namespace

BENCHMARK_MAIN();
