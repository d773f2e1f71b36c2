#ifndef SMARTCONF_WORKLOAD_YCSB_H_
#define SMARTCONF_WORKLOAD_YCSB_H_

/**
 * @file
 * YCSB-like key-value workload generator.
 *
 * The paper profiles and evaluates the key-value case studies (CA6059,
 * HB2149, HB3813, HB6728) with YCSB; workloads are described by a write
 * fraction (xW), a request size (yMB) and a read index-cache ratio (Cz)
 * — see Table 6.  This generator reproduces those knobs on top of the
 * deterministic RNG: per-tick operation batches with Zipfian key
 * popularity and configurable arrival-rate burstiness.
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
    std::uint64_t key = 0;
    double size_mb = 0.0; ///< payload for writes, response size for reads
};

/** Table 6 workload knobs: "xW, yMB, Cz". */
struct YcsbParams
{
    double write_fraction = 0.5;  ///< xW: fraction of ops that are writes
    double request_size_mb = 1.0; ///< yMB: mean payload size
    double cache_ratio = 0.0;     ///< Cz: read index cache ratio

    double ops_per_tick = 20.0;   ///< mean arrival rate
    double burstiness = 0.3;      ///< relative stddev of per-tick batch
    std::uint64_t key_count = 100000;
    double zipf_theta = 0.99;     ///< YCSB default key skew
    double size_jitter = 0.1;     ///< relative stddev of payload size
};

/**
 * Generates per-tick operation batches.
 */
class YcsbGenerator
{
  public:
    YcsbGenerator(const YcsbParams &params, sim::Rng rng);

    /**
     * Fill @p out (cleared first) with the operations arriving during
     * one tick.  Re-feeding the same buffer every tick amortizes its
     * allocation to the run's burst high-water mark — the steady-state
     * arrival path stops touching the heap.  Generation is
     * struct-of-arrays: the op count is drawn once, then the tick's
     * type coins, Zipfian keys and Box-Muller size jitter are each
     * produced as kernel-layer batches (Rng::fillRaw +
     * AliasTable::sampleBatch + Rng::gaussianBatch — SIMD lanes, one
     * PRNG word per coin/key, two per jitter pair).
     */
    void tickInto(std::vector<Op> &out);

    /** Switch parameters mid-run (phase change). */
    void setParams(const YcsbParams &params);

    /**
     * Single-knob mutators for per-tick schedules.  Scenario drivers
     * retune the arrival rate (and friends) every tick; these skip the
     * params()-copy / setParams round trip and its rebuild check —
     * none of these knobs feed the Zipfian table, so mutating them in
     * place is observably identical.
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
    sim::ZipfianGenerator zipf_;
    std::uint64_t generated_ = 0;

    /** Per-tick raw-word / key batch buffer (amortized like `out`). */
    std::vector<std::uint64_t> scratch_;

    /** Per-tick size-jitter batch buffer (amortized like `out`). */
    std::vector<double> jitter_;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_YCSB_H_
