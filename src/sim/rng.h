#ifndef SMARTCONF_SIM_RNG_H_
#define SMARTCONF_SIM_RNG_H_

/**
 * @file
 * Deterministic random number generation for the simulation substrate.
 *
 * Every scenario run is seeded explicitly so that tests, benches and the
 * figures regenerated from them are bit-reproducible.  The generator is
 * xoshiro256** (public domain, Blackman & Vigna); distributions include
 * the YCSB Zipfian sampler the fleet uses for tenant popularity.
 */

#include <cstdint>
#include <memory>
#include <vector>

namespace smartconf::sim {

class AliasTable;

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // The integer/uniform primitives are defined inline: they sit on
    // the per-operation hot path of every workload generator and
    // sampler (tens of millions of calls per sweep), where the work is
    // a handful of ALU ops — a cross-TU call would cost more than the
    // function body.

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        advance(s_);
        return result;
    }

    /**
     * Fill @p out[0..n) with the next @p n raw values — the same words,
     * in the same order, as @p n successive next() calls (and the
     * generator lands in the same state).  The serial part of xoshiro
     * is only the state transition; fillRaw records the per-step s[1]
     * words and applies the output map through the SIMD kernel layer
     * (sim/kernels.h), so wide batches beat the call-per-word loop
     * while remaining stream-identical to it.
     */
    void fillRaw(std::uint64_t *out, std::size_t n);

    /**
     * Integer acceptance bound for a probability-@p p coin flipped on
     * raw words: chance(p) == (next() >> 11) < coinThreshold(p) for
     * every word.  Proof: uniform() = double(r >> 11) * 2^-53 < p
     * <=> (r >> 11) < p * 2^53 as reals (both sides scale exactly:
     * r >> 11 has at most 53 significant bits and multiplying a double
     * by a power of two only moves its exponent), and for integer x,
     * x < t <=> x < ceil(t).  Lets batch consumers turn coin flips
     * into pure integer compares on fillRaw() output.
     */
    static std::uint64_t coinThreshold(double p)
    {
        if (p >= 1.0)
            return 1ULL << 53; // above every (r >> 11): always true
        if (p <= 0.0)
            return 0; // never true, like uniform() < 0
        return static_cast<std::uint64_t>(
            __builtin_ceil(p * 9007199254740992.0 /* 2^53 */));
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t below(std::uint64_t n)
    {
        return next() % n; // modulo bias negligible for simulation
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t between(std::int64_t lo, std::int64_t hi)
    {
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(below(span));
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /** Exponential variate with the given mean (inter-arrival times). */
    double exponential(double mean);

    /**
     * Normal variate via the kernel-layer Box-Muller
     * (kernels::gaussianPairs): each pair of raw words yields two
     * normals; the second is cached and returned by the next call.
     */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * Fill @p out[0..n) with normals — the same values, from the same
     * words, as @p n successive gaussian() calls (spare carry
     * included), but drawn through fillRaw() + the vectorized pair
     * kernel in chunks.
     */
    void gaussianBatch(double mean, double stddev, double *out,
                       std::size_t n);

    /**
     * Raw words gaussianBatch(mean, stddev, out, @p n) would draw from
     * this stream now: two per pair, after the carried spare (if any)
     * serves the first normal.  At most n + 1.
     */
    std::size_t gaussianWords(std::size_t n) const
    {
        const std::size_t fresh = n - (n != 0 && have_spare_ ? 1 : 0);
        return (fresh + 1) / 2 * 2;
    }

    /**
     * gaussianBatch on words the caller has already drawn: @p words
     * holds the next gaussianWords(@p n) words of this stream, taken
     * in the caller's own fillRaw alongside its other draws.  Writes
     * the same normals and leaves the same spare as
     * gaussianBatch(mean, stddev, out, n) would; draws nothing itself.
     */
    void gaussianBatch(const std::uint64_t *words, double mean,
                       double stddev, double *out, std::size_t n);

    /**
     * Fork an independent stream: deterministic function of this
     * generator's seed and @p stream_id, so components can own private
     * streams without coupling their draw order.
     */
    Rng fork(std::uint64_t stream_id) const;

    /**
     * Advance this generator by 2^128 steps (the canonical xoshiro256**
     * jump polynomial): repeated jumps carve one seed into
     * non-overlapping substreams, which is how ShardedYcsbGenerator
     * derives its lane streams (workload/sharded.h) and MrCluster its
     * per-worker streams.  The logical seed is remixed alongside the
     * state so fork() on a jumped stream yields streams distinct from
     * forks of the unjumped one.
     */
    void jump();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** xoshiro256** state transition on a raw state, no output map. */
    static void advance(std::uint64_t s[4])
    {
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
    }

    std::uint64_t s_[4];
    std::uint64_t seed_;
    bool have_spare_ = false;
    double spare_ = 0.0;
};

/**
 * Zipfian sampler over [0, n) with skew theta, as used by YCSB.
 *
 * Draws come from a Walker alias table (see sim/alias_sampler.h):
 * O(1), pow-free, one PRNG word per sample.  The table build is O(n)
 * with a pow() per term — for a 100k-tenant fleet that would dwarf
 * the sampler's own cost — so tables are memoized per (n, theta) in a
 * process-wide, thread-safe cache: every generator construction after
 * the first with the same parameters shares the already-built table.
 *
 * Stream compatibility: a draw consumes exactly one Rng::next(), the
 * same as the previous Gray et al. inverse-CDF sampler, so other
 * consumers of a shared Rng stream see identical values; only the
 * u -> rank mapping differs (exact alias pmf instead of the Gray
 * approximation).
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     population size (> 0).
     * @param theta skew in [0, 1); YCSB's default is 0.99... we default
     *              to 0.99 to match.
     */
    explicit ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Sample an item index in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    /**
     * Fill @p out[0..count) with samples in one pass — bit-identical
     * to @p count serial sample() calls (see AliasTable::sampleBatch).
     */
    void sampleBatch(Rng &rng, std::uint64_t *out,
                     std::size_t count) const;

    std::uint64_t population() const { return n_; }

    /** zeta(n, theta), the pmf normalizer (= the table's weight sum). */
    double zeta() const { return zetan_; }

    /** Exact probability of rank @p i under this distribution. */
    double pmf(std::uint64_t i) const;

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    std::shared_ptr<const AliasTable> table_;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_RNG_H_
