#include "sim/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

/*
 * Backend layout.  The scalar namespace is the canonical definition of
 * every dispatched kernel; the avx2 namespace re-implements the same
 * math on 256-bit registers and is compiled on every x86 target.  Each
 * AVX2 function carries a gcc/clang `target` attribute instead of the
 * whole TU being built with -mavx2, so the compiler can never leak AVX2
 * instructions into code that runs on narrower hosts; those hosts run
 * the scalar reference.  checksum() is not dispatched: its one scalar
 * body is the fastest at every level.
 */
#if defined(__x86_64__) || defined(__i386__)
#define SMARTCONF_X86 1
#include <immintrin.h>
#endif

namespace smartconf::sim {

namespace simd {

const char *
name(Isa isa)
{
    return isa == Isa::Avx2 ? "avx2" : "scalar";
}

bool
parse(std::string_view text, Isa &out)
{
    if (text == "scalar") {
        out = Isa::Scalar;
        return true;
    }
    if (text == "avx2") {
        out = Isa::Avx2;
        return true;
    }
    return false;
}

Isa
detected()
{
    static const Isa level = [] {
        Isa isa = Isa::Scalar;
#ifdef SMARTCONF_X86
        if (__builtin_cpu_supports("avx2"))
            isa = Isa::Avx2;
#endif
        return isa;
    }();
    return level;
}

bool
supported(Isa isa)
{
    return static_cast<int>(isa) <= static_cast<int>(detected());
}

} // namespace simd

namespace kernels {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kLaneGamma = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

// ---------------------------------------------------------------- scalar
// The reference implementations: these loops *are* the definition the
// vector backends must reproduce bit-for-bit.

namespace scalar {

void
rngOutputMap(std::uint64_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        words[i] = rotl64(words[i] * 5, 7) * 9;
}

void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = words[i];
        const auto slot =
            static_cast<std::uint32_t>(((w >> 32) * n_slots) >> 32);
        const std::uint64_t entry = entries[slot];
        words[i] = static_cast<std::uint32_t>(w) <
                           static_cast<std::uint32_t>(entry >> 32)
                       ? slot
                       : static_cast<std::uint32_t>(entry);
    }
}

// Gaussian-pair body (kernels_gauss.inc) on plain doubles.  The ops
// all lower to bare IEEE scalar instructions, so this reference is
// what the vector backends' lanes must match bit-for-bit.
#define GK_FN static inline
#define GK_D double
#define GK_I std::uint64_t
#define GK_SETD(c) (c)
#define GK_SETI(c) (c)
#define GK_ADD(a, b) ((a) + (b))
#define GK_SUB(a, b) ((a) - (b))
#define GK_MUL(a, b) ((a) * (b))
#define GK_DIV(a, b) ((a) / (b))
#define GK_SQRT(a) __builtin_sqrt(a)
#define GK_CASTDI(d) __builtin_bit_cast(std::uint64_t, (d))
#define GK_CASTID(i) __builtin_bit_cast(double, (i))
#define GK_ANDI(a, b) ((a) & (b))
#define GK_ORI(a, b) ((a) | (b))
#define GK_XORI(a, b) ((a) ^ (b))
#define GK_ADDI(a, b) ((a) + (b))
#define GK_SUBI(a, b) ((a) - (b))
#define GK_SHRI(v, k) ((v) >> (k))
#define GK_SHLI(v, k) ((v) << (k))
#define GK_CMPGT(a, b) ((a) > (b) ? ~0ULL : 0ULL)
#define GK_SEL(m, a, b) \
    GK_CASTID(((m) & GK_CASTDI(a)) | (~(m) & GK_CASTDI(b)))
#include "sim/kernels_gauss.inc"
#undef GK_FN
#undef GK_D
#undef GK_I
#undef GK_SETD
#undef GK_SETI
#undef GK_ADD
#undef GK_SUB
#undef GK_MUL
#undef GK_DIV
#undef GK_SQRT
#undef GK_CASTDI
#undef GK_CASTID
#undef GK_ANDI
#undef GK_ORI
#undef GK_XORI
#undef GK_ADDI
#undef GK_SUBI
#undef GK_SHRI
#undef GK_SHLI
#undef GK_CMPGT
#undef GK_SEL

void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
    for (std::size_t i = 0; i < pairs; ++i) {
        double z0, z1;
        gkGaussPair(words[2 * i], words[2 * i + 1], &z0, &z1);
        z[2 * i] = z0;
        z[2 * i + 1] = z1;
    }
}

} // namespace scalar

#ifdef SMARTCONF_X86

// ----------------------------------------------------------------- avx2
// 256-bit backend: four 64-bit words per register, and the alias
// kernel uses hardware gathers.  Every function carries the avx2
// target attribute (the TU itself is compiled for the baseline ISA).

namespace avx2 {

__attribute__((target("avx2"))) void
rngOutputMap(std::uint64_t *words, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(x, 2), x);
        const __m256i r = _mm256_or_si256(_mm256_slli_epi64(x5, 7),
                                          _mm256_srli_epi64(x5, 57));
        x = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(words + i), x);
    }
    for (; i < n; ++i)
        words[i] = rotl64(words[i] * 5, 7) * 9;
}

__attribute__((target("avx2"))) void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
    const __m256i nvec =
        _mm256_set1_epi64x(static_cast<long long>(n_slots));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + i));
        const __m256i hi = _mm256_srli_epi64(w, 32);
        const __m256i slot =
            _mm256_srli_epi64(_mm256_mul_epu32(hi, nvec), 32);
        const __m256i entry = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(entries), slot, 8);
        const __m256i coin = _mm256_and_si256(w, lo32);
        const __m256i thresh = _mm256_srli_epi64(entry, 32);
        // coin < thresh; both fit in 32 bits, so the signed 64-bit
        // compare is exact.
        const __m256i take = _mm256_cmpgt_epi64(thresh, coin);
        const __m256i alias = _mm256_and_si256(entry, lo32);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(words + i),
                            _mm256_blendv_epi8(alias, slot, take));
    }
    if (i < n)
        scalar::aliasResolve(entries, n_slots, words + i, n - i);
}

// Gaussian-pair body on 256-bit lanes.  GK_FN carries the target
// attribute so the include's helpers may use AVX2 instructions.
#define GK_FN __attribute__((target("avx2"))) static inline
#define GK_D __m256d
#define GK_I __m256i
#define GK_SETD(c) _mm256_set1_pd(c)
#define GK_SETI(c) _mm256_set1_epi64x(static_cast<long long>(c))
#define GK_ADD(a, b) _mm256_add_pd((a), (b))
#define GK_SUB(a, b) _mm256_sub_pd((a), (b))
#define GK_MUL(a, b) _mm256_mul_pd((a), (b))
#define GK_DIV(a, b) _mm256_div_pd((a), (b))
#define GK_SQRT(a) _mm256_sqrt_pd(a)
#define GK_CASTDI(d) _mm256_castpd_si256(d)
#define GK_CASTID(i) _mm256_castsi256_pd(i)
#define GK_ANDI(a, b) _mm256_and_si256((a), (b))
#define GK_ORI(a, b) _mm256_or_si256((a), (b))
#define GK_XORI(a, b) _mm256_xor_si256((a), (b))
#define GK_ADDI(a, b) _mm256_add_epi64((a), (b))
#define GK_SUBI(a, b) _mm256_sub_epi64((a), (b))
#define GK_SHRI(v, k) _mm256_srli_epi64((v), (k))
#define GK_SHLI(v, k) _mm256_slli_epi64((v), (k))
#define GK_CMPGT(a, b) \
    _mm256_castpd_si256(_mm256_cmp_pd((a), (b), _CMP_GT_OQ))
#define GK_SEL(m, a, b)                                \
    _mm256_castsi256_pd(_mm256_or_si256(               \
        _mm256_and_si256((m), _mm256_castpd_si256(a)), \
        _mm256_andnot_si256((m), _mm256_castpd_si256(b))))
#include "sim/kernels_gauss.inc"
#undef GK_FN
#undef GK_D
#undef GK_I
#undef GK_SETD
#undef GK_SETI
#undef GK_ADD
#undef GK_SUB
#undef GK_MUL
#undef GK_DIV
#undef GK_SQRT
#undef GK_CASTDI
#undef GK_CASTID
#undef GK_ANDI
#undef GK_ORI
#undef GK_XORI
#undef GK_ADDI
#undef GK_SUBI
#undef GK_SHRI
#undef GK_SHLI
#undef GK_CMPGT
#undef GK_SEL

__attribute__((target("avx2"))) void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
    std::size_t i = 0;
    for (; i + 4 <= pairs; i += 4) {
        // a = {p0.w0, p0.w1, p1.w0, p1.w1}, b = same for p2/p3.
        // unpack*_epi64 works per 128-bit half, so the deinterleaved
        // pair order is {p0, p2, p1, p3} — the matching unpack*_pd on
        // the way out restores memory order without a permute.
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + 2 * i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + 2 * i + 4));
        __m256d z0, z1;
        gkGaussPair(_mm256_unpacklo_epi64(a, b),
                    _mm256_unpackhi_epi64(a, b), &z0, &z1);
        _mm256_storeu_pd(z + 2 * i, _mm256_unpacklo_pd(z0, z1));
        _mm256_storeu_pd(z + 2 * i + 4, _mm256_unpackhi_pd(z0, z1));
    }
    if (i < pairs)
        scalar::gaussianPairs(words + 2 * i, z + 2 * i, pairs - i);
}

} // namespace avx2

#endif // SMARTCONF_X86

// ------------------------------------------------------------- dispatch

struct KernelTable
{
    void (*rng_output_map)(std::uint64_t *, std::size_t);
    void (*alias_resolve)(const std::uint64_t *, std::uint64_t,
                          std::uint64_t *, std::size_t);
    void (*gaussian_pairs)(const std::uint64_t *, double *,
                           std::size_t);
    simd::Isa isa;
};

constexpr KernelTable kScalarTable = {
    scalar::rngOutputMap,
    scalar::aliasResolve,
    scalar::gaussianPairs,
    simd::Isa::Scalar,
};

#ifdef SMARTCONF_X86
constexpr KernelTable kAvx2Table = {
    avx2::rngOutputMap,
    avx2::aliasResolve,
    avx2::gaussianPairs,
    simd::Isa::Avx2,
};
#endif

const KernelTable *
tableFor([[maybe_unused]] simd::Isa isa)
{
#ifdef SMARTCONF_X86
    if (isa == simd::Isa::Avx2)
        return &kAvx2Table;
#endif
    return &kScalarTable;
}

/**
 * Dispatch target.  Resolved lazily on first kernel call: SMARTCONF_ISA
 * (if set and parseable) clamped to simd::detected(), else detected().
 * A first-use race between sweep workers is benign — both resolve to
 * the same table.  setIsa() stores are only expected while no kernels
 * run concurrently (tests, bench setup).
 */
std::atomic<const KernelTable *> g_table{nullptr};

simd::Isa
clampToDetected(simd::Isa isa)
{
    return simd::supported(isa) ? isa : simd::detected();
}

const KernelTable &
table()
{
    const KernelTable *t = g_table.load(std::memory_order_acquire);
    if (t == nullptr) {
        simd::Isa isa = simd::detected();
        if (const char *env = std::getenv("SMARTCONF_ISA")) {
            simd::Isa requested;
            if (simd::parse(env, requested))
                isa = clampToDetected(requested);
        }
        t = tableFor(isa);
        g_table.store(t, std::memory_order_release);
    }
    return *t;
}

} // namespace

void
rngOutputMap(std::uint64_t *words, std::size_t n)
{
    table().rng_output_map(words, n);
}

void
aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
             std::uint64_t *words, std::size_t n)
{
    table().alias_resolve(entries, n_slots, words, n);
}

// One body at every dispatch level.  Each lane is its own register-
// resident chain of xor + 64-bit imul, so the four chains overlap in
// the multiplier and the loop runs at imul throughput.  AVX2 has no
// 64-bit lane multiply; the emulated one (two 32x32 products plus
// shifts and adds) ran at half this speed.
std::uint64_t
checksum(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const auto word = [p](std::size_t at) {
        std::uint64_t w;
        std::memcpy(&w, p + at, 8);
        return w;
    };
    std::uint64_t l0 = kFnvBasis;
    std::uint64_t l1 = kFnvBasis ^ kLaneGamma;
    std::uint64_t l2 = kFnvBasis ^ (2 * kLaneGamma);
    std::uint64_t l3 = kFnvBasis ^ (3 * kLaneGamma);
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        l0 = (l0 ^ word(i)) * kFnvPrime;
        l1 = (l1 ^ word(i + 8)) * kFnvPrime;
        l2 = (l2 ^ word(i + 16)) * kFnvPrime;
        l3 = (l3 ^ word(i + 24)) * kFnvPrime;
    }
    std::uint64_t h = kFnvBasis;
    h = (h ^ l0) * kFnvPrime;
    h = (h ^ l1) * kFnvPrime;
    h = (h ^ l2) * kFnvPrime;
    h = (h ^ l3) * kFnvPrime;
    for (; i + 8 <= len; i += 8)
        h = (h ^ word(i)) * kFnvPrime;
    for (; i < len; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

void
gaussianPairs(const std::uint64_t *words, double *z, std::size_t pairs)
{
    table().gaussian_pairs(words, z, pairs);
}

simd::Isa
activeIsa()
{
    return table().isa;
}

simd::Isa
setIsa(simd::Isa isa)
{
    const simd::Isa clamped = clampToDetected(isa);
    g_table.store(tableFor(clamped), std::memory_order_release);
    return clamped;
}

} // namespace kernels

} // namespace smartconf::sim
