#ifndef SMARTCONF_SIM_SIMD_H_
#define SMARTCONF_SIM_SIMD_H_

/**
 * @file
 * ISA levels for the data-plane kernel layer (see sim/kernels.h).
 *
 * The kernels ship one scalar reference implementation (the canonical
 * definition of every kernel's output) plus an AVX2 backend selected at
 * runtime on x86 hosts that have it.  This header only names the levels
 * and the detection/override surface; all implementation lives in
 * kernels.cc, so no other translation unit's code generation depends
 * on the target ISA.
 *
 * Level selection, in priority order:
 *   1. kernels::setIsa() — explicit (tests iterate every level);
 *   2. SMARTCONF_ISA=scalar|avx2 in the environment, read once at
 *      first kernel use (forcing a level the host cannot run clamps
 *      down to the best available one; any other value is ignored);
 *   3. CPUID detection.
 */

#include <string_view>

namespace smartconf::sim::simd {

/** Dispatch levels, ordered so that higher = wider. */
enum class Isa
{
    Scalar = 0, ///< portable reference (always available)
    Avx2 = 1,   ///< 256-bit lanes + gathers
};

/** Lower-case level name ("scalar", "avx2"). */
const char *name(Isa isa);

/**
 * Parse a level name (as accepted in SMARTCONF_ISA).  Returns false —
 * leaving @p out untouched — on anything unrecognized.
 */
bool parse(std::string_view text, Isa &out);

/**
 * Best level this process can actually execute: Avx2 when CPUID
 * reports it on an x86 target, Scalar otherwise.
 */
Isa detected();

/** True when @p isa is at or below detected(). */
bool supported(Isa isa);

} // namespace smartconf::sim::simd

#endif // SMARTCONF_SIM_SIMD_H_
