/**
 * @file
 * Per-kernel microbenchmark for the SIMD kernel layer (sim/kernels.h):
 * ns/element for every kernel at the active dispatch level and at the
 * scalar reference, so the vector backends' advantage is a number the
 * regression gate can hold on to (`bench_micro_kernels --json`, floors
 * recorded in BENCH_kernels.json via bench/check_regression --update).
 *
 * "Element" is one uint64 word for the RNG/alias kernels, one normal
 * for the gaussian draw, and one byte for the checksum.  Batch sizes use
 * a hot size (4096) large enough that dispatch overhead amortizes out
 * — the point is kernel body throughput, not call cost (bench_sweep
 * carries the end-to-end number).
 *
 * Timing is best-of-reps over a fixed iteration budget per kernel; the
 * whole binary stays well under a second so the regression gate can
 * afford to run it every time.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/alias_sampler.h"
#include "sim/kernels.h"
#include "sim/rng.h"
#include "sim/simd.h"

namespace kernels = smartconf::sim::kernels;
namespace simd = smartconf::sim::simd;
using smartconf::sim::AliasTable;
using smartconf::sim::Rng;

namespace {

constexpr std::size_t kWords = 4096;  ///< uint64 elements per batch
constexpr std::size_t kBytes = 65536; ///< checksum payload

/** Best-of-reps ns/element for @p body run @p iters times per rep. */
template <typename Body>
double
nsPerElement(std::size_t elements, int iters, Body &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            body();
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            (static_cast<double>(iters) *
             static_cast<double>(elements));
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

struct Row
{
    const char *name;
    double active_ns = 0.0;
    double scalar_ns = 0.0;
};

/** volatile sink so checksums cannot be optimized away. */
volatile std::uint64_t g_sink;

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json")
            json = true;

    // Inputs are built once and reused; every kernel reads fresh from
    // L1/L2, which is how the hot loops use them (scratch buffers).
    std::vector<std::uint64_t> words(kWords);
    std::vector<std::uint64_t> scratch(kWords);
    std::vector<double> normals(kWords);
    std::vector<unsigned char> bytes(kBytes);
    Rng seedr(0xbe7c4);
    for (auto &w : words)
        w = seedr.next();
    for (auto &b : bytes)
        b = static_cast<unsigned char>(seedr.next());
    const auto table = AliasTable::zipfian(100000, 0.99);
    Rng rng(1);

    Row rows[] = {
        {"rng_fill"},
        {"alias_sample"},
        {"checksum"},
        {"gaussian"},
    };
    const auto run_all = [&](bool scalar) {
        const auto set = [&](Row &row, double v) {
            (scalar ? row.scalar_ns : row.active_ns) = v;
        };
        set(rows[0], nsPerElement(kWords, 400, [&] {
                rng.fillRaw(scratch.data(), kWords);
            }));
        // End-to-end Zipfian draw (fillRaw + aliasResolve), the shape
        // the fleet's per-epoch traffic draw uses.
        set(rows[1], nsPerElement(kWords, 400, [&] {
                table->sampleBatch(rng, scratch.data(), kWords);
            }));
        set(rows[2], nsPerElement(kBytes, 100, [&] {
                g_sink = kernels::checksum(bytes.data(), kBytes);
            }));
        // End-to-end normal draw (fillRaw + polynomial Box-Muller),
        // the YCSB size-jitter path; element = one normal.
        set(rows[3], nsPerElement(kWords, 400, [&] {
                rng.gaussianBatch(0.0, 1.0, normals.data(), kWords);
            }));
    };

    // Active level first (honours SMARTCONF_ISA), then the pinned
    // scalar reference for the speedup column.
    const simd::Isa active = kernels::activeIsa();
    run_all(false);
    kernels::setIsa(simd::Isa::Scalar);
    run_all(true);
    kernels::setIsa(active);

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"bench_micro_kernels\",\n");
        std::printf("  \"isa_detected\": \"%s\",\n",
                    simd::name(simd::detected()));
        std::printf("  \"isa_active\": \"%s\",\n", simd::name(active));
        std::printf("  \"kernels\": [\n");
        const std::size_t n = sizeof rows / sizeof rows[0];
        for (std::size_t i = 0; i < n; ++i) {
            std::printf("    {\"name\": \"%s\", "
                        "\"ns_per_element\": %.4f, "
                        "\"scalar_ns_per_element\": %.4f, "
                        "\"speedup_vs_scalar\": %.2f}%s\n",
                        rows[i].name, rows[i].active_ns,
                        rows[i].scalar_ns,
                        rows[i].active_ns > 0.0
                            ? rows[i].scalar_ns / rows[i].active_ns
                            : 0.0,
                        i + 1 < n ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("SIMD kernel microbenchmarks (isa: %s, scalar "
                "reference in parens)\n\n",
                simd::name(active));
    for (const Row &row : rows)
        std::printf("%-14s %8.3f ns/elem  (scalar %8.3f, %.2fx)\n",
                    row.name, row.active_ns, row.scalar_ns,
                    row.active_ns > 0.0
                        ? row.scalar_ns / row.active_ns
                        : 0.0);
    return 0;
}
