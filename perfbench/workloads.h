#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * One closed-loop unit of work per subsystem, each timed from outside
 * through the subsystem's public functions:
 *
 *  - a sweep pass: a fresh exec::SweepRunner over six scenarios x
 *    {SmartConf, Static-Patch, Static-Buggy} x a seed range;
 *  - a fleet run: one fleet::runFleet call;
 *  - a store cycle: puts + flushes, interleaved present/absent gets,
 *    synchronous compaction, and a reopened DiskRunCache serving gets.
 *
 * Each unit checks its own outputs and counts attempted and failed
 * operations.  With a Tracer it also records spans around the calls.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/thread_pool.h"
#include "fleet/coordinator.h"
#include "scenarios/scenario.h"
#include "store/segment_store.h"

namespace perfbench {

/**
 * Input sizes of one workload.  The workload's own subsystem runs at
 * full size; the other two run at background size, because every run
 * reports every end-to-end metric.
 */
struct Sizes
{
    std::size_t sweep_seeds = 0;     ///< x 6 scenarios x 3 policies
    std::uint32_t fleet_tenants = 0; ///< 240 ticks each
    std::size_t store_results = 0;   ///< real-size results put per cycle
};

/** @return false for an unknown workload name. */
bool sizesFor(const std::string &workload, Sizes &out);

inline constexpr std::size_t kPolicies = 3; ///< smart, patch, buggy
extern const std::array<const char *, kPolicies> kPolicyNames;

/** The six scenario ids in Table 6 order. */
const std::vector<std::string> &scenarioIds();

/** The kvstore / dfs / mapreduce plant each scenario runs on. */
const char *plantOf(const std::string &scenario_id);

/** First seed of a workload seed's sweep range (seed 1 -> 1..n). */
std::uint64_t sweepFirstSeed(std::uint64_t workload_seed,
                             std::size_t n_seeds);

// ---------------------------------------------------------------- sweep

/** One simulated job of a traced pass (dedup hits run no job). */
struct JobSample
{
    std::size_t scenario = 0; ///< index into scenarioIds()
    std::size_t policy = 0;   ///< index into kPolicyNames
    std::int64_t ns = 0;      ///< Scenario::run span
    std::uint64_t ops = 0;    ///< ScenarioResult::ops_simulated
};

struct SweepPass
{
    double wall_ms = 0.0; ///< SweepRunner::run, timed from outside
    std::size_t jobs = 0;
    std::uint64_t ops = 0; ///< workload ops simulated
    std::uint64_t digest = 0;
    std::uint64_t dedup_hits = 0; ///< RunCache hits within the pass
    std::size_t failed = 0;

    // Traced passes only.
    double busy_frac = 0.0; ///< sum of job spans / (wall x workers)
    double join_ms = 0.0;   ///< last job end -> run() return
    double exec_self_ms = 0.0; ///< run() time no job span covers
    std::vector<JobSample> samples;
};

/**
 * Run one cold pass on a fresh SweepRunner (in-memory cache, disk cache
 * off).  @p keep receives the results in submission order when given.
 */
SweepPass runSweepPass(std::uint64_t first_seed, std::size_t n_seeds,
                       std::size_t workers, Tracer *tracer,
                       std::vector<smartconf::scenarios::ScenarioResult>
                           *keep = nullptr);

/** Fig. 5 quality of a pass's results (submission order). */
struct Quality
{
    std::uint64_t smart_violations = 0;
    double smart_tradeoff_gain = 0.0; ///< geomean of smart / patch
};

Quality qualityOf(
    const std::vector<smartconf::scenarios::ScenarioResult> &results,
    std::size_t n_seeds);

// ---------------------------------------------------------------- fleet

struct FleetRun
{
    double wall_ms = 0.0; ///< runFleet, timed from outside
    std::uint64_t tenant_ticks = 0;
    double violation_rate = 0.0;
    std::uint64_t digest = 0; ///< FleetResult::checksum
    std::uint64_t epochs = 0;
    double inner_wall_ms = 0.0; ///< FleetResult::wall_ms
    smartconf::fleet::FleetCoordinator::Stats coord;
    bool failed = false;
};

FleetRun runFleetOnce(std::uint32_t tenants, std::int64_t ticks,
                      std::uint64_t seed, bool smart,
                      smartconf::exec::ThreadPool *pool, Tracer *tracer);

// ---------------------------------------------------------------- store

/** Everything one store cycle puts and gets, built once per process. */
struct StoreInput
{
    std::vector<smartconf::scenarios::ScenarioResult> payloads;
    std::vector<std::vector<char>> bytes; ///< serialized payloads
    std::vector<std::string> keys;        ///< present keys
    std::vector<std::uint32_t> payload_of; ///< key -> payload
    std::vector<std::string> absent;       ///< never put
    /** Put order in flush batches; later batches re-put some keys. */
    std::vector<std::vector<std::uint32_t>> batches;
    std::vector<std::uint32_t> get_order;
};

/**
 * @param real  results of a sweep pass, reused as the payloads: a sweep
 *              with the disk cache on stores only such results.
 */
StoreInput makeStoreInput(
    std::uint64_t seed, const Sizes &sizes,
    const std::vector<smartconf::scenarios::ScenarioResult> &real);

struct StoreCycle
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /** Every store(), load() and flush(). */
    std::vector<double> put_us, hit_us, miss_us;
    std::vector<double> flush_ms;
    double reopen_ms = 0.0;
    double disk_bytes_per_payload_byte = 0.0; ///< after compaction
    double compact_ms = 0.0;
    smartconf::store::CompactionResult compaction;
    smartconf::store::StoreStats io;        ///< first instance
    smartconf::store::StoreStats reopen_io; ///< reopened instance
};

StoreCycle runStoreCycle(const StoreInput &in, const std::string &root,
                         Tracer *tracer);

/**
 * Set-up for the store: every payload through the codec and checksum,
 * with no files.  @return payloads that did not round-trip.
 */
std::size_t warmStoreCodec(const StoreInput &in);

// --------------------------------------------------------- layer probes

/**
 * Direct timings of single layers that no unit above exposes: the
 * profiling step, the fleet without controllers and at one tick, tenant
 * plant and controller ticks, Zipf draws, the store's codec, and gets of
 * small (~1 KB) results.
 */
struct Probes
{
    std::vector<double> profile_ms; ///< per scenarioIds() entry
    double pinned_wall_ms = 0.0;    ///< runFleet, smart = false
    double one_tick_ms = 0.0;       ///< runFleet, one tick, one epoch
    double control_tick_ns = 0.0;   ///< TenantNode::controlTick
    double plant_tick_ns = 0.0;     ///< TenantNode::tick
    std::uint64_t controller_faults = 0;
    double zipf_draw_ns = 0.0; ///< ZipfianGenerator::sampleBatch
    double serialize_us_small = 0.0, serialize_us_large = 0.0;
    double parse_us_small = 0.0, parse_us_large = 0.0;
    double checksum_mb_per_s = 0.0;
    double get_hit_us_small = 0.0; ///< load() hit, store of small results
    std::size_t attempted = 0, failed = 0;
};

/** @param work  directory for the small-result store (removed after). */
Probes probeLayers(std::uint64_t seed, const Sizes &sizes,
                   smartconf::exec::ThreadPool *pool,
                   const StoreInput &store_input, const std::string &work);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
