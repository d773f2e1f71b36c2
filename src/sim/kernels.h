#ifndef SMARTCONF_SIM_KERNELS_H_
#define SMARTCONF_SIM_KERNELS_H_

/**
 * @file
 * Portable SIMD kernel layer for the data-plane hot loops.
 *
 * The per-event hot paths run in batch form so they can be vectorized;
 * this layer supplies the vector bodies.  Each kernel exists in two
 * backends (scalar / AVX2) behind a runtime-dispatched function
 * pointer, and the scalar implementation is the *canonical definition*
 * of the kernel's output:
 *
 *  - Integer kernels (PRNG output map, alias-table resolution) are
 *    bit-identical across backends, period.  The checksum has one
 *    scalar body for every level (see checksum()).
 *  - The one floating-point kernel, gaussianPairs(), is bit-identical
 *    because its body uses only correctly rounded IEEE operations and
 *    fixed polynomials, never libm or fused multiply-adds.
 *
 * Dispatch is process-wide and resolved on first use from
 * SMARTCONF_ISA / CPUID (see sim/simd.h); setIsa() re-points it for
 * differential tests and benches.  All kernels are safe for concurrent
 * callers: they touch only their arguments.
 */

#include <cstddef>
#include <cstdint>

#include "sim/simd.h"

namespace smartconf::sim::kernels {

/**
 * xoshiro256** output map, elementwise in place:
 * x -> rotl64(x * 5, 7) * 9.
 *
 * Rng::fillRaw() records the pre-transition s[1] state words (the
 * serial dependency) and lets this kernel apply the starify output
 * function lane-parallel — the multiplies decompose into shift+add
 * (x*5 = (x<<2)+x, x*9 = (x<<3)+x), so no 64-bit vector multiply is
 * needed and the result is the serial stream word-for-word.
 */
void rngOutputMap(std::uint64_t *words, std::size_t n);

/**
 * Alias-table draw resolution, in place: words[i] (one raw PRNG word
 * per draw) -> sampled index.  Packed-entry layout and the slot /
 * accept / alias math are exactly AliasTable::sample():
 *   slot  = ((w >> 32) * n_slots) >> 32
 *   entry = entries[slot]
 *   out   = low32(w) < high32(entry) ? slot : low32(entry)
 * The AVX2 backend gathers four entries per step; both backends are
 * bit-identical (pure integer math).
 */
void aliasResolve(const std::uint64_t *entries, std::uint64_t n_slots,
                  std::uint64_t *words, std::size_t n);

/**
 * Payload checksum: four interleaved FNV-1a-style lanes over 8-byte
 * words.  Definition (P = 0x100000001b3, B = 0xcbf29ce484222325):
 *   lane[j]   = B ^ (j * 0x9e3779b97f4a7c15),        j in [0, 4)
 *   per 32-byte block: lane[j] = (lane[j] ^ w[j]) * P
 *   h = B; for j in 0..3: h = (h ^ lane[j]) * P
 *   remaining full words:  h = (h ^ w) * P
 *   trailing bytes:        h = (h ^ byte) * P
 * Interleaving breaks the serial multiply dependency FNV-1a has: the
 * four lanes are four independent xor + 64-bit imul chains, which an
 * out-of-order core overlaps, so the loop runs at multiply throughput
 * (~8 bytes per cycle) rather than multiply latency.  One scalar body
 * serves every dispatch level — AVX2 has no 64-bit lane multiply to do
 * better with.  NOT the same value as the old word-serial
 * checksum64, which is why DiskRunCache's format version moved.
 */
std::uint64_t checksum(const void *data, std::size_t len);

/**
 * Box-Muller: 2*pairs raw PRNG words -> 2*pairs standard normals.
 * For each pair (w0 = words[2i], w1 = words[2i+1]):
 *   u1  = ((w0 >> 12) + 0.5) * 2^-52          in (0, 1)
 *   u2  =  (w1 >> 12)        * 2^-52          in [0, 1)
 *   mag = sqrt(-2 ln u1)
 *   z[2i] = mag * cos(2 pi u2),  z[2i+1] = mag * sin(2 pi u2)
 * ln and sin/cos are evaluated from fixed polynomials inside the
 * kernel (see sim/kernels_gauss.inc) rather than libm, so the kernel —
 * not the host's math library — defines the stream, and every backend
 * is bit-identical (the TU is built with -ffp-contract=off and uses
 * only correctly-rounded IEEE ops).  Accuracy vs. libm is ~1e-15
 * relative, far below the noise this kernel generates.  This is the
 * engine behind Rng::gaussian()/gaussianBatch().
 */
void gaussianPairs(const std::uint64_t *words, double *z,
                   std::size_t pairs);

/** Level the kernel table currently dispatches to. */
simd::Isa activeIsa();

/**
 * Re-point dispatch at @p isa, clamped to simd::detected().  Returns
 * the level actually installed.  Intended for differential tests and
 * benches; not thread-safe against concurrently running kernels.
 */
simd::Isa setIsa(simd::Isa isa);

} // namespace smartconf::sim::kernels

#endif // SMARTCONF_SIM_KERNELS_H_
