#ifndef SMARTCONF_SIM_ALIAS_SAMPLER_H_
#define SMARTCONF_SIM_ALIAS_SAMPLER_H_

/**
 * @file
 * Walker/Vose alias-table sampling for finite discrete distributions.
 *
 * The Gray et al. Zipfian sampler pays ~2 pow() calls per draw; at the
 * fleet's per-epoch traffic volume that would be its largest per-draw
 * cost.  An alias table answers the same
 * draw in O(1) with one PRNG word, one multiply, one table load and one
 * compare — no transcendentals.
 *
 * Construction is O(n) (Vose's two-worklist variant, numerically robust
 * for the heavy-tailed Zipf weights), so tables are immutable and
 * shared: zipfian() memoizes one table per (n, theta) process-wide,
 * the same pattern as the zeta cache it subsumes.  A 100k-key table is
 * ~800 KB and is built once per process, not once per generator.
 *
 * Each slot packs its acceptance threshold (32-bit fixed point) and
 * alias index into a single uint64, so a draw touches exactly one cache
 * line of table data.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.h"

namespace smartconf::sim {

/**
 * Immutable O(1) sampler over {0, ..., n-1} with arbitrary
 * non-negative weights.  Thread-safe for concurrent sampling (all
 * state is const after construction; the caller owns the Rng).
 */
class AliasTable
{
  public:
    /**
     * Build from @p weights (need not be normalized; at least one
     * weight must be positive, and n must fit in 32 bits).
     */
    explicit AliasTable(const std::vector<double> &weights);

    /**
     * Draw one index.  Consumes exactly one Rng::next() word: the high
     * half selects the slot, the low half is the acceptance coin —
     * the same stream consumption as one Rng::uniform() call, so
     * swapping a uniform-based sampler for an alias table keeps every
     * other consumer of the shared Rng stream aligned.
     */
    std::uint32_t sample(Rng &rng) const
    {
        const std::uint64_t r = rng.next();
        const auto slot = static_cast<std::uint32_t>(((r >> 32) * n_) >> 32);
        const std::uint64_t entry = entries_[slot];
        return static_cast<std::uint32_t>(r) <
                       static_cast<std::uint32_t>(entry >> 32)
                   ? slot
                   : static_cast<std::uint32_t>(entry);
    }

    /**
     * Fill @p out[0..count) with draws — bit-identical to @p count
     * serial sample() calls, in the same Rng stream positions.  The
     * raw words come from Rng::fillRaw() (serial-stream-equivalent
     * batch generation) and the slot/accept/alias resolution runs
     * through the SIMD kernel layer (packed-uint64 entries, AVX2
     * gathers where available; see sim/kernels.h).
     */
    void sampleBatch(Rng &rng, std::uint64_t *out,
                     std::size_t count) const;

    /** Population size n. */
    std::size_t size() const { return static_cast<std::size_t>(n_); }

    /** Sum of the input weights (for Zipf weights this is zeta(n)). */
    double weightSum() const { return weight_sum_; }

    /**
     * Shared table for the Zipf distribution over [0, n) with skew
     * @p theta (weight of rank i is (i+1)^-theta).  Memoized per
     * (n, theta) process-wide and thread-safe; every generator after
     * the first with the same parameters reuses the built table.
     */
    static std::shared_ptr<const AliasTable> zipfian(std::uint64_t n,
                                                     double theta);

  private:
    /** threshold (high 32, fixed-point acceptance bound) | alias (low 32). */
    std::vector<std::uint64_t> entries_;
    std::uint64_t n_ = 0;
    double weight_sum_ = 0.0;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_ALIAS_SAMPLER_H_
