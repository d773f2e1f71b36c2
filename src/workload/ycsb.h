#ifndef SMARTCONF_WORKLOAD_YCSB_H_
#define SMARTCONF_WORKLOAD_YCSB_H_

/**
 * @file
 * YCSB-like key-value workload generator.
 *
 * The paper profiles and evaluates the key-value case studies (CA6059,
 * HB2149, HB3813, HB6728) with YCSB; workloads are described by a write
 * fraction (xW), a request size (yMB) and a read index-cache ratio (Cz)
 * — see Table 6.  This generator reproduces the first two on top of the
 * deterministic RNG (Cz is a plant setting: CA6059 schedules its own
 * cache ratio): per-tick operation batches with configurable
 * arrival-rate burstiness, each op a read or write coin and a jittered
 * payload size.  The plants read an op's type and size only, so no
 * key is resolved: each op's key word is still drawn, which keeps the
 * stream where YCSB's Zipfian key draw left it.
 */

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"

namespace smartconf::workload {

/** One client operation against a key-value store. */
struct Op
{
    enum class Type
    {
        Read,
        Write,
    };

    Type type = Type::Read;
    double size_mb = 0.0; ///< payload for writes, response size for reads
};

/** Table 6 workload knobs "xW, yMB", and the arrival process. */
struct YcsbParams
{
    double write_fraction = 0.5;  ///< xW: fraction of ops that are writes
    double request_size_mb = 1.0; ///< yMB: mean payload size

    double ops_per_tick = 20.0;   ///< mean arrival rate
    double burstiness = 0.3;      ///< relative stddev of per-tick batch
    double size_jitter = 0.1;     ///< relative stddev of payload size
};

/**
 * Draw @p len operations from @p rng into @p ops[0..len).  One
 * fillRaw takes the block's words in the stream's historical order: a
 * type coin per op, a key word per op, then the size jitter's
 * Box-Muller words (Rng::gaussianWords, which follows the stream's
 * carried spare).  The key words are skipped, never resolved.  The
 * caller's @p words and @p jitter buffers only grow, so a steady
 * stream of blocks stops touching the heap.
 */
void drawOps(const YcsbParams &params, sim::Rng &rng, Op *ops,
             std::size_t len, std::vector<std::uint64_t> &words,
             std::vector<double> &jitter);

/**
 * Generates per-tick operation batches.
 */
class YcsbGenerator
{
  public:
    YcsbGenerator(const YcsbParams &params, sim::Rng rng);

    /**
     * Fill @p out (resized, buffer reused) with the operations
     * arriving during one tick.  Re-feeding the same buffer every tick
     * amortizes its allocation to the run's burst high-water mark.
     * The op count is drawn first (one gaussian()), then the whole
     * tick is one drawOps block.
     */
    void tickInto(std::vector<Op> &out);

    /** Switch parameters mid-run (phase change). */
    void setParams(const YcsbParams &params) { params_ = params; }

    /**
     * Single-knob mutators for per-tick schedules.  Scenario drivers
     * retune the arrival rate (and friends) every tick; these skip the
     * params()-copy / setParams round trip.
     */
    void setOpsPerTick(double v) { params_.ops_per_tick = v; }
    void setWriteFraction(double v) { params_.write_fraction = v; }
    void setRequestSizeMb(double v) { params_.request_size_mb = v; }

    const YcsbParams &params() const { return params_; }

    /** Total operations generated so far. */
    std::uint64_t generated() const { return generated_; }

  private:
    YcsbParams params_;
    sim::Rng rng_;
    std::uint64_t generated_ = 0;

    /** drawOps's word and size-jitter buffers (amortized like `out`). */
    std::vector<std::uint64_t> words_;
    std::vector<double> jitter_;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_YCSB_H_
