/**
 * @file
 * Differential tests for the SIMD kernel layer (sim/kernels.h).
 *
 * The scalar backend is the canonical definition of every kernel's
 * output, so the core of this suite is one shape: compute a result at
 * each dispatch level the host supports and require it to be
 * *bit-identical* to the scalar reference — integer kernels because
 * they are pure integer math, the gaussian kernel because its body uses
 * only correctly rounded IEEE operations and fixed polynomials.
 *
 * Inputs deliberately include the awkward cases: n = 0 and 1, lengths
 * around every lane-count multiple, heavy-tailed alias tables, and raw
 * words at the integer extremes.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/alias_sampler.h"
#include "sim/kernels.h"
#include "sim/rng.h"
#include "sim/simd.h"

namespace kernels = smartconf::sim::kernels;
namespace simd = smartconf::sim::simd;
using smartconf::sim::AliasTable;
using smartconf::sim::Rng;
using smartconf::sim::ZipfianGenerator;

namespace {

constexpr simd::Isa kAllLevels[] = {simd::Isa::Scalar, simd::Isa::Avx2};

/**
 * Run @p fn once per ISA level this host can execute (requesting an
 * unsupported level clamps, which we detect and skip), restoring the
 * default dispatch level afterwards even on assertion failure.
 */
template <typename Fn>
void
forEachSupportedIsa(Fn &&fn)
{
    int levels_run = 0;
    for (simd::Isa isa : kAllLevels) {
        if (kernels::setIsa(isa) != isa)
            continue; // this host cannot execute this level
        SCOPED_TRACE(std::string("isa=") + simd::name(isa));
        fn(isa);
        ++levels_run;
    }
    kernels::setIsa(simd::detected());
    // The scalar reference always exists; running zero levels would
    // mean the whole suite silently tested nothing.
    ASSERT_GE(levels_run, 1);
}

/** Lengths that straddle every lane-multiple boundary up to 4 lanes. */
const std::size_t kAwkwardLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,
                                       9,  12, 15, 16, 17, 31, 32, 33,
                                       63, 64, 100, 255, 1024, 1027};

std::vector<std::uint64_t>
randomWords(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> w(n);
    for (auto &x : w)
        x = rng.next();
    // Salt in the integer extremes so compares/rotates see them.
    if (n > 0)
        w[0] = 0;
    if (n > 1)
        w[1] = ~0ULL;
    if (n > 2)
        w[2] = 0x8000000000000000ULL;
    if (n > 3)
        w[3] = 0x00000000ffffffffULL;
    return w;
}

/** Bitwise equality for doubles (distinguishes NaN payloads, -0.0). */
bool
sameBits(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, 8);
    std::memcpy(&ub, &b, 8);
    return ua == ub;
}

} // namespace

// ---------------------------------------------------------------------------
// Dispatch plumbing

TEST(Simd, ParseAcceptsExactlyTheLevelNames)
{
    simd::Isa isa = simd::Isa::Avx2;
    EXPECT_TRUE(simd::parse("scalar", isa));
    EXPECT_EQ(isa, simd::Isa::Scalar);
    EXPECT_TRUE(simd::parse("avx2", isa));
    EXPECT_EQ(isa, simd::Isa::Avx2);

    EXPECT_FALSE(simd::parse("", isa));
    EXPECT_FALSE(simd::parse("sse2", isa)); // no SSE2 level
    EXPECT_FALSE(simd::parse("AVX2", isa)); // names are lower-case
    EXPECT_FALSE(simd::parse("avx512", isa));
    EXPECT_EQ(isa, simd::Isa::Avx2); // out untouched on failure
}

TEST(Simd, NamesRoundTripThroughParse)
{
    for (simd::Isa isa : kAllLevels) {
        simd::Isa back = simd::Isa::Scalar;
        ASSERT_TRUE(simd::parse(simd::name(isa), back));
        EXPECT_EQ(back, isa);
    }
}

TEST(Simd, DetectedIsSupportedAndScalarAlwaysIs)
{
    EXPECT_TRUE(simd::supported(simd::detected()));
    EXPECT_TRUE(simd::supported(simd::Isa::Scalar));
}

TEST(Kernels, SetIsaClampsToDetectedAndReportsActive)
{
    const simd::Isa ceiling = simd::detected();
    for (simd::Isa isa : kAllLevels) {
        const simd::Isa got = kernels::setIsa(isa);
        EXPECT_LE(static_cast<int>(got), static_cast<int>(ceiling));
        if (simd::supported(isa)) {
            EXPECT_EQ(got, isa);
        }
        EXPECT_EQ(kernels::activeIsa(), got);
    }
    kernels::setIsa(simd::detected());
}

// ---------------------------------------------------------------------------
// rngOutputMap / fillRaw

TEST(Kernels, RngOutputMapMatchesScalarAtEveryLevel)
{
    for (std::size_t n : kAwkwardLengths) {
        const auto input = randomWords(n, 0x1234 + n);
        auto reference = input;
        kernels::setIsa(simd::Isa::Scalar);
        kernels::rngOutputMap(reference.data(), reference.size());

        forEachSupportedIsa([&](simd::Isa) {
            auto words = input;
            kernels::rngOutputMap(words.data(), words.size());
            EXPECT_EQ(words, reference) << "n=" << n;
        });
    }
}

TEST(Kernels, FillRawReproducesTheSerialStreamWordForWord)
{
    forEachSupportedIsa([&](simd::Isa) {
        for (std::size_t n : kAwkwardLengths) {
            Rng serial(0xfeed + n);
            Rng batched(0xfeed + n);
            std::vector<std::uint64_t> expect(n), got(n);
            for (auto &w : expect)
                w = serial.next();
            batched.fillRaw(got.data(), n);
            EXPECT_EQ(got, expect) << "n=" << n;
            // The generators must also land in the same state.
            EXPECT_EQ(batched.next(), serial.next()) << "n=" << n;
        }
    });
}

// ---------------------------------------------------------------------------
// aliasResolve / sampleBatch

TEST(Kernels, AliasResolveMatchesScalarOnHeavyTailedTables)
{
    // Zipf(theta=0.99) concentrates ~10% of mass on rank 0: slots are
    // wildly unequal, so accept/alias both fire constantly.
    const std::uint64_t kPopulations[] = {1, 2, 3, 100, 4096, 100000};
    for (std::uint64_t pop : kPopulations) {
        const auto table = AliasTable::zipfian(pop, 0.99);
        for (std::size_t n : kAwkwardLengths) {
            const auto input = randomWords(n, pop * 31 + n);
            auto reference = input;
            kernels::setIsa(simd::Isa::Scalar);
            Rng ref_rng(pop + n);
            table->sampleBatch(ref_rng, reference.data(), n);

            forEachSupportedIsa([&](simd::Isa) {
                auto out = input;
                Rng rng(pop + n);
                table->sampleBatch(rng, out.data(), n);
                EXPECT_EQ(out, reference)
                    << "pop=" << pop << " n=" << n;
            });
        }
    }
}

TEST(Kernels, SampleBatchEqualsSerialSampleCalls)
{
    const auto table = AliasTable::zipfian(100000, 0.99);
    forEachSupportedIsa([&](simd::Isa) {
        Rng serial(42), batched(42);
        std::vector<std::uint64_t> got(257);
        table->sampleBatch(batched, got.data(), got.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], table->sample(serial)) << "i=" << i;
        EXPECT_EQ(batched.next(), serial.next());
    });
}

TEST(Kernels, ZipfianGeneratorBatchMatchesSerialAcrossLevels)
{
    ZipfianGenerator zipf(5000, 0.8);
    forEachSupportedIsa([&](simd::Isa) {
        Rng serial(7), batched(7);
        std::uint64_t got[97];
        zipf.sampleBatch(batched, got, 97);
        for (std::size_t i = 0; i < 97; ++i)
            EXPECT_EQ(got[i], zipf.sample(serial)) << "i=" << i;
    });
}

// ---------------------------------------------------------------------------
// checksum

TEST(Kernels, ChecksumBitIdenticalAcrossLevels)
{
    for (std::size_t n : kAwkwardLengths) {
        std::vector<unsigned char> data(n);
        Rng rng(0x5eed + n);
        for (auto &b : data)
            b = static_cast<unsigned char>(rng.next());

        kernels::setIsa(simd::Isa::Scalar);
        const std::uint64_t reference =
            kernels::checksum(data.data(), n);

        forEachSupportedIsa([&](simd::Isa) {
            EXPECT_EQ(kernels::checksum(data.data(), n), reference)
                << "n=" << n;
        });
    }
}

TEST(Kernels, ChecksumMatchesTheDocumentedDefinition)
{
    // Independent re-derivation of the spec in kernels.h, so the
    // on-disk format can't silently drift with the implementation.
    const auto spec = [](const unsigned char *p, std::size_t len) {
        constexpr std::uint64_t P = 0x100000001b3ULL;
        constexpr std::uint64_t B = 0xcbf29ce484222325ULL;
        std::uint64_t lane[4];
        for (std::uint64_t j = 0; j < 4; ++j)
            lane[j] = B ^ (j * 0x9e3779b97f4a7c15ULL);
        std::size_t i = 0;
        for (; i + 32 <= len; i += 32)
            for (std::size_t j = 0; j < 4; ++j) {
                std::uint64_t w = 0;
                std::memcpy(&w, p + i + 8 * j, 8);
                lane[j] = (lane[j] ^ w) * P;
            }
        std::uint64_t h = B;
        for (std::size_t j = 0; j < 4; ++j)
            h = (h ^ lane[j]) * P;
        for (; i + 8 <= len; i += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, p + i, 8);
            h = (h ^ w) * P;
        }
        for (; i < len; ++i)
            h = (h ^ p[i]) * P;
        return h;
    };

    for (std::size_t n : kAwkwardLengths) {
        std::vector<unsigned char> data(n);
        Rng rng(0xc0de + n);
        for (auto &b : data)
            b = static_cast<unsigned char>(rng.next());
        forEachSupportedIsa([&](simd::Isa) {
            EXPECT_EQ(kernels::checksum(data.data(), n),
                      spec(data.data(), n))
                << "n=" << n;
        });
    }
}

TEST(Kernels, ChecksumDetectsSingleBitFlips)
{
    std::vector<unsigned char> data(257);
    Rng rng(99);
    for (auto &b : data)
        b = static_cast<unsigned char>(rng.next());
    const std::uint64_t clean =
        kernels::checksum(data.data(), data.size());
    for (std::size_t pos : {std::size_t{0}, std::size_t{31},
                            std::size_t{32}, std::size_t{255},
                            std::size_t{256}}) {
        data[pos] ^= 0x10;
        EXPECT_NE(kernels::checksum(data.data(), data.size()), clean)
            << "flip at " << pos;
        data[pos] ^= 0x10;
    }
}

// ---------------------------------------------------------------------------
// coinThreshold (the batch coin-flip contract)

TEST(Kernels, CoinThresholdMatchesUniformCompareExactly)
{
    // chance(p) must equal (word >> 11) < coinThreshold(p) for the
    // same word, for any p — including p exactly representable at the
    // 2^-53 grid (where ceil() ties matter) and the clamped edges.
    Rng prng(0xb0b);
    std::vector<double> ps = {0.0,   1.0,  0.5,    0.25, 1e-17,
                              1.0 - 1e-16, 0.1,    0.99, 0x1.0p-53,
                              3 * 0x1.0p-53, 0.7 - 0x1.0p-54};
    for (int i = 0; i < 100; ++i)
        ps.push_back(prng.uniform());

    Rng words(0x3333);
    for (double p : ps) {
        const std::uint64_t bound = Rng::coinThreshold(p);
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t w = words.next();
            const bool via_double =
                static_cast<double>(w >> 11) * 0x1.0p-53 < p;
            EXPECT_EQ((w >> 11) < bound, via_double)
                << "p=" << p << " w=" << w;
        }
        // Boundary words: exactly at and adjacent to the threshold.
        if (bound > 0 && bound < (1ULL << 53)) {
            for (std::uint64_t hi : {bound - 1, bound, bound + 1}) {
                const std::uint64_t w = hi << 11;
                const bool via_double =
                    static_cast<double>(w >> 11) * 0x1.0p-53 < p;
                EXPECT_EQ((w >> 11) < bound, via_double)
                    << "p=" << p << " hi=" << hi;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// gaussianPairs (the polynomial Box-Muller kernel)

TEST(Kernels, GaussianPairsBitIdenticalAcrossLevels)
{
    // FP polynomial kernel: identity across backends is the entire
    // design contract (-ffp-contract=off + one shared op sequence).
    for (std::size_t pairs : kAwkwardLengths) {
        const auto words = randomWords(2 * pairs, 0x6a0 + pairs);
        std::vector<double> ref(2 * pairs, 0.0);
        kernels::setIsa(simd::Isa::Scalar);
        kernels::gaussianPairs(words.data(), ref.data(), pairs);
        kernels::setIsa(simd::detected());

        forEachSupportedIsa([&](simd::Isa) {
            std::vector<double> z(2 * pairs, -1.0);
            kernels::gaussianPairs(words.data(), z.data(), pairs);
            for (std::size_t i = 0; i < 2 * pairs; ++i)
                ASSERT_TRUE(sameBits(z[i], ref[i]))
                    << "pairs=" << pairs << " i=" << i << " got "
                    << z[i] << " want " << ref[i];
        });
    }
}

TEST(Kernels, GaussianPairsTracksTheLibmReference)
{
    // The kernel's polynomials replace libm, so it can't be *equal* to
    // std::log/sin/cos — but it must sit within ~1e-12 of the same
    // Box-Muller math evaluated through them, across random words and
    // the salted extremes (w0=0 drives u1 to its floor, mag to its
    // ceiling ~8.5; w0=~0 drives mag toward 0; w1 extremes push the
    // angle reduction through every quadrant boundary).
    const auto words = randomWords(2 * 4096, 0x11b3);
    std::vector<double> z(words.size());
    kernels::gaussianPairs(words.data(), z.data(), words.size() / 2);
    for (std::size_t i = 0; i + 2 <= words.size(); i += 2) {
        const double u1 =
            (static_cast<double>(words[i] >> 12) + 0.5) * 0x1.0p-52;
        const double u2 =
            static_cast<double>(words[i + 1] >> 12) * 0x1.0p-52;
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double ang = 2.0 * 3.14159265358979323846 * u2;
        EXPECT_NEAR(z[i], mag * std::cos(ang), 1e-12) << "i=" << i;
        EXPECT_NEAR(z[i + 1], mag * std::sin(ang), 1e-12) << "i=" << i;
    }
}

TEST(Kernels, GaussianBatchEqualsSerialGaussianCalls)
{
    // gaussianBatch must be stream- and value-identical to n serial
    // gaussian() calls, including the spare normal carried across the
    // batch boundary (odd n leaves one cached).
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{17},
                          std::size_t{256}, std::size_t{257},
                          std::size_t{300}}) {
        Rng serial(0xabba), batch(0xabba);
        // Desynchronize the spare state deliberately: an initial odd
        // draw leaves both generators holding a cached normal.
        ASSERT_TRUE(sameBits(serial.gaussian(), batch.gaussian()));

        std::vector<double> got(n, -1.0);
        batch.gaussianBatch(2.0, 3.0, got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameBits(got[i], serial.gaussian(2.0, 3.0)))
                << "n=" << n << " i=" << i;
        // Generators must land in the same state (words and spare).
        EXPECT_EQ(serial.next(), batch.next()) << "n=" << n;
        EXPECT_TRUE(sameBits(serial.gaussian(), batch.gaussian()))
            << "n=" << n;
    }
}

TEST(Kernels, GaussianBatchOnDrawnWordsEqualsSerialGaussianCalls)
{
    // The caller draws gaussianWords(n) words itself (here in one
    // fillRaw after three unrelated words, as a YCSB block does); the
    // normals, the spare and the stream position must be those of n
    // serial gaussian() calls.
    for (const bool spare : {false, true}) {
        for (std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{5},
                              std::size_t{256}, std::size_t{301}}) {
            Rng serial(0xbeef), drawn(0xbeef);
            if (spare) {
                ASSERT_TRUE(sameBits(serial.gaussian(), drawn.gaussian()));
            }
            for (int k = 0; k < 3; ++k)
                ASSERT_EQ(serial.next(), drawn.next());

            const std::size_t words = drawn.gaussianWords(n);
            EXPECT_LE(words, n + 1);
            EXPECT_EQ(words % 2, 0u);
            std::vector<std::uint64_t> w(words + 1);
            drawn.fillRaw(w.data(), words);
            std::vector<double> got(n, -1.0);
            drawn.gaussianBatch(w.data(), 2.0, 3.0, got.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_TRUE(sameBits(got[i], serial.gaussian(2.0, 3.0)))
                    << "spare=" << spare << " n=" << n << " i=" << i;
            EXPECT_EQ(serial.next(), drawn.next())
                << "spare=" << spare << " n=" << n;
            EXPECT_TRUE(sameBits(serial.gaussian(), drawn.gaussian()))
                << "spare=" << spare << " n=" << n;
        }
    }
}
