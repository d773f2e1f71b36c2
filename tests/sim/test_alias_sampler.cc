/**
 * @file
 * Distributional correctness of the Walker/Vose alias-table Zipfian
 * sampler.
 *
 * The O(1) sampler replaced the Gray et al. pow()-based rejection
 * sampler, so these tests pin down the property the swap must
 * preserve: draws follow the exact Zipf pmf.  A chi-square
 * goodness-of-fit test runs over the (n, theta) grid the case studies
 * use; head ranks get individual bins and the tail is aggregated into
 * logarithmic bins so every bin keeps an expected count >= 5 (the
 * classical validity rule).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/alias_sampler.h"
#include "sim/rng.h"

namespace smartconf::sim {
namespace {

/**
 * Upper critical value of chi-square with @p df degrees of freedom at
 * significance alpha = 0.001, via the Wilson–Hilferty cube
 * approximation (accurate to a fraction of a percent for df >= 3).
 */
double
chiSquareCritical(double df)
{
    const double z = 3.0902; // Phi^-1(0.999)
    const double a = 2.0 / (9.0 * df);
    const double c = 1.0 - a + z * std::sqrt(a);
    return df * c * c * c;
}

struct Bin
{
    std::uint64_t lo = 0; ///< first rank in the bin (inclusive)
    std::uint64_t hi = 0; ///< last rank in the bin (inclusive)
    double expected = 0.0;
    std::uint64_t observed = 0;
};

/**
 * Build bins over ranks [0, n): individual bins while the per-rank
 * expectation stays >= @p min_expected, then geometrically widening
 * tail bins, merging the remainder so no bin falls below the floor.
 */
std::vector<Bin>
makeBins(const ZipfianGenerator &zipf, double draws, double min_expected)
{
    const std::uint64_t n = zipf.population();
    std::vector<Bin> bins;
    std::uint64_t i = 0;
    // Head: one bin per rank while each is individually testable.
    while (i < n && draws * zipf.pmf(i) >= min_expected) {
        bins.push_back({i, i, draws * zipf.pmf(i), 0});
        ++i;
        if (bins.size() >= 64)
            break; // enough head resolution; switch to ranged bins
    }
    // Tail: geometric ranges, each accumulating until both wide enough
    // and heavy enough.
    std::uint64_t width = 1;
    while (i < n) {
        Bin b;
        b.lo = i;
        double expected = 0.0;
        std::uint64_t hi = i;
        while (hi < n &&
               (expected < min_expected || hi - b.lo + 1 < width)) {
            expected += draws * zipf.pmf(hi);
            ++hi;
        }
        b.hi = hi - 1;
        b.expected = expected;
        bins.push_back(b);
        i = hi;
        width *= 2;
    }
    // The last bin can come up light; merge it into its neighbour.
    while (bins.size() > 1 && bins.back().expected < min_expected) {
        Bin last = bins.back();
        bins.pop_back();
        bins.back().hi = last.hi;
        bins.back().expected += last.expected;
    }
    return bins;
}

/** Chi-square GOF statistic of @p samples under the binning. */
double
chiSquare(std::vector<Bin> &bins, const std::vector<std::uint64_t> &samples)
{
    for (const std::uint64_t s : samples) {
        // Binary search: bins partition [0, n) in rank order.
        std::size_t lo = 0, hi = bins.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (s > bins[mid].hi)
                lo = mid + 1;
            else
                hi = mid;
        }
        ++bins[lo].observed;
    }
    double stat = 0.0;
    for (const Bin &b : bins) {
        const double d =
            static_cast<double>(b.observed) - b.expected;
        stat += d * d / b.expected;
    }
    return stat;
}

class AliasSamplerGof
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{};

TEST_P(AliasSamplerGof, MatchesZipfPmf)
{
    const auto [n, theta] = GetParam();
    const std::size_t draws = n <= 1000 ? 200000 : 400000;

    ZipfianGenerator zipf(n, theta);
    Rng rng(0x5eed0001);
    std::vector<std::uint64_t> samples(draws);
    zipf.sampleBatch(rng, samples.data(), samples.size());

    std::vector<Bin> bins =
        makeBins(zipf, static_cast<double>(draws), 5.0);
    ASSERT_GE(bins.size(), 3u);
    const double stat = chiSquare(bins, samples);
    const double df = static_cast<double>(bins.size() - 1);
    const double crit = chiSquareCritical(df);
    EXPECT_LT(stat, crit)
        << "chi2=" << stat << " df=" << df << " crit(alpha=.001)=" << crit
        << " for n=" << n << " theta=" << theta;

    // All probability mass accounted for (bins partition [0, n)).
    double total = 0.0;
    for (const Bin &b : bins)
        total += b.expected;
    EXPECT_NEAR(total, static_cast<double>(draws), draws * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudyGrid, AliasSamplerGof,
    ::testing::Combine(::testing::Values(std::uint64_t{100},
                                         std::uint64_t{100000}),
                       ::testing::Values(0.5, 0.99)));

TEST(AliasSampler, DrawsStayInRange)
{
    const AliasTable table(std::vector<double>{5.0, 1.0, 0.25});
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(table.sample(rng), 3u);
}

TEST(AliasSampler, OneNextWordPerDraw)
{
    // The contract the generators rely on: swapping sample() for any
    // other single-uniform consumer keeps the shared stream aligned.
    ZipfianGenerator zipf(1000, 0.99);
    Rng a(77), b(77);
    for (int i = 0; i < 1000; ++i)
        (void)zipf.sample(a);
    for (int i = 0; i < 1000; ++i)
        (void)b.next();
    EXPECT_EQ(a.next(), b.next());
}

TEST(AliasSampler, SampleBatchMatchesRepeatedSample)
{
    ZipfianGenerator zipf(5000, 0.5);
    Rng a(123), b(123);
    std::vector<std::uint64_t> batch(2048);
    zipf.sampleBatch(a, batch.data(), batch.size());
    for (const std::uint64_t expected : batch)
        EXPECT_EQ(zipf.sample(b), expected);
}

TEST(AliasSampler, ZipfTablesAreShared)
{
    const auto t1 = AliasTable::zipfian(4242, 0.9);
    const auto t2 = AliasTable::zipfian(4242, 0.9);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_NE(t1.get(), AliasTable::zipfian(4242, 0.8).get());
}

TEST(AliasSampler, DegenerateSingleItem)
{
    const AliasTable table(std::vector<double>{3.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(table.sample(rng), 0u);
}

} // namespace
} // namespace smartconf::sim
