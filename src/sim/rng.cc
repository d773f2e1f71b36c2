#include "sim/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/alias_sampler.h"
#include "sim/kernels.h"

namespace smartconf::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

void
Rng::fillRaw(std::uint64_t *out, std::size_t n)
{
    // Phase 1 (serial): walk the state, recording each step's
    // pre-transition s[1] — the only word the output map reads.  This
    // is cheaper than next() per word (no multiplies) and is the part
    // that cannot vectorize.  The walk runs on a local copy: a store
    // through out may alias s_ as far as the compiler knows, so
    // walking s_ itself would reload and re-store all four words every
    // step.  Phase 2 (parallel): the kernel applies rotl(x*5, 7)*9 to
    // the whole buffer in SIMD lanes.
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = s[1];
        advance(s);
    }
    std::copy(s, s + 4, s_);
    kernels::rngOutputMap(out, n);
}

double
Rng::exponential(double mean)
{
    assert(mean > 0.0);
    double u = uniform();
    if (u <= 0.0)
        u = 1e-12;
    return -mean * std::log(u);
}

double
Rng::gaussian(double mean, double stddev)
{
    if (have_spare_) {
        have_spare_ = false;
        return mean + stddev * spare_;
    }
    // Inline next() twice instead of fillRaw(w, 2): same words, but a
    // single-pair draw doesn't amortize the batch path's two dispatch
    // hops (per-tick scalar draws, such as a plant's service budget,
    // hit this at scenario-tick rate).
    std::uint64_t w[2];
    w[0] = next();
    w[1] = next();
    double z[2];
    kernels::gaussianPairs(w, z, 1);
    spare_ = z[1];
    have_spare_ = true;
    return mean + stddev * z[0];
}

void
Rng::gaussianBatch(double mean, double stddev, double *out,
                   std::size_t n)
{
    // Chunked so the word staging stays on the stack; each chunk draws
    // exactly the words its normals need, so the stream is what n
    // serial gaussian() calls would consume.
    constexpr std::size_t kChunk = 256;
    std::uint64_t w[kChunk + 1];
    for (std::size_t i = 0; i < n;) {
        const std::size_t take = std::min(kChunk, n - i);
        const std::size_t words = gaussianWords(take);
        fillRaw(w, words);
        gaussianBatch(w, mean, stddev, out + i, take);
        i += take;
    }
}

void
Rng::gaussianBatch(const std::uint64_t *words, double mean,
                   double stddev, double *out, std::size_t n)
{
    std::size_t i = 0;
    if (n != 0 && have_spare_) {
        have_spare_ = false;
        out[i++] = mean + stddev * spare_;
    }
    // Two words per pair; a trailing odd normal's partner is carried
    // as the spare.  The normals are staged on the stack in chunks.
    constexpr std::size_t kChunk = 128;
    double z[2 * kChunk];
    while (i < n) {
        const std::size_t remaining = n - i;
        const std::size_t pairs =
            std::min(kChunk, (remaining + 1) / 2);
        kernels::gaussianPairs(words, z, pairs);
        words += 2 * pairs;
        const std::size_t take = std::min(remaining, 2 * pairs);
        for (std::size_t j = 0; j < take; ++j)
            out[i + j] = mean + stddev * z[j];
        i += take;
        if (take < 2 * pairs) {
            spare_ = z[take];
            have_spare_ = true;
        }
    }
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    return Rng(seed_ ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
}

namespace {

/**
 * Blackman & Vigna's jump polynomial for xoshiro256**, applied to a
 * raw state: the accumulated XOR of the states reached at the set bits
 * of the constants equals the state 2^128 steps ahead.  Kept as the
 * reference implementation; the public jump() goes through the
 * precomputed GF(2) matrix below, which this routine seeds.
 */
void
polyJump(std::uint64_t s[4])
{
    static constexpr std::uint64_t kJump[4] = {
        0x180ec6d33cfd0abaULL, 0xd5a13266802b9a6aULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (const std::uint64_t word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (word & (1ULL << b))
                for (int j = 0; j < 4; ++j)
                    acc[j] ^= s[j];
            // xoshiro256** state transition (Rng::advance on a raw
            // state array).
            const std::uint64_t t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = (s[3] << 45) | (s[3] >> 19);
        }
    }
    for (int j = 0; j < 4; ++j)
        s[j] = acc[j];
}

/**
 * The 2^128-step jump as a 256x256 GF(2) matrix: row (w*64 + b) is the
 * state the polynomial walk reaches from the basis state with only bit
 * b of word w set.  The jump is linear over GF(2), so jumping any
 * state is the XOR of the rows selected by its set bits — one table
 * row per set bit (~128 on average) instead of 1024 full state
 * transitions, and bit-identical to the polynomial walk.  Built once
 * per process (256 basis walks); every jump after that pays ~128 row
 * XORs.
 */
struct JumpMatrix
{
    std::uint64_t row[256][4];
};

const JumpMatrix &
jumpMatrix()
{
    static const JumpMatrix matrix = [] {
        JumpMatrix m;
        for (int r = 0; r < 256; ++r) {
            std::uint64_t s[4] = {0, 0, 0, 0};
            s[r >> 6] = 1ULL << (r & 63);
            polyJump(s);
            for (int j = 0; j < 4; ++j)
                m.row[r][j] = s[j];
        }
        return m;
    }();
    return matrix;
}

} // namespace

void
Rng::jump()
{
    const JumpMatrix &m = jumpMatrix();
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (int w = 0; w < 4; ++w) {
        std::uint64_t bits = s_[w];
        while (bits != 0) {
            const int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            const std::uint64_t *row = m.row[w * 64 + b];
            acc[0] ^= row[0];
            acc[1] ^= row[1];
            acc[2] ^= row[2];
            acc[3] ^= row[3];
        }
    }
    for (int j = 0; j < 4; ++j)
        s_[j] = acc[j];
    // Remix the logical seed too: fork() is keyed off seed_, so jumped
    // streams must not share their fork family with the base stream.
    std::uint64_t sm = seed_ ^ 0x6a09e667f3bcc909ULL;
    seed_ = splitmix64(sm);
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta), table_(AliasTable::zipfian(n, theta))
{
    assert(n_ > 0);
    assert(theta_ >= 0.0 && theta_ < 1.0);
    zetan_ = table_->weightSum();
}

std::uint64_t
ZipfianGenerator::sample(Rng &rng) const
{
    return table_->sample(rng);
}

void
ZipfianGenerator::sampleBatch(Rng &rng, std::uint64_t *out,
                              std::size_t count) const
{
    table_->sampleBatch(rng, out, count);
}

double
ZipfianGenerator::pmf(std::uint64_t i) const
{
    assert(i < n_);
    return 1.0 / std::pow(static_cast<double>(i + 1), theta_) / zetan_;
}

} // namespace smartconf::sim
