#ifndef SMARTCONF_TESTS_SUPPORT_PROFILE_FAULTS_H_
#define SMARTCONF_TESTS_SUPPORT_PROFILE_FAULTS_H_

/**
 * @file
 * Degenerate-profile generators (test support).
 *
 * The profiler's failure modes are not random bit flips but *shapes*:
 * a profile gathered at a single setting, groups with one sample each,
 * zero-variance groups, a flat response surface (alpha ~ 0), a
 * non-monotonic valley.  Each generator below builds a Profiler
 * exhibiting one shape so tests can assert the synthesis path reports
 * the right verdict (ProfileSummary::insufficient / !monotonic /
 * alpha ~ 0) instead of silently producing an aggressive controller —
 * which is exactly what the pre-hardening code did (delta = 1,
 * lambda = 0: the fastest, least-margined controller possible, derived
 * from the *least* trustworthy profile possible).
 *
 * All generators are seeded and deterministic.
 */

#include <cstdint>
#include <vector>

#include "core/profiler.h"

namespace smartconf::fault {

/** All samples at one setting: no gain is identifiable. */
Profiler singleSettingProfile(double setting, double mean, double noise,
                              int samples, std::uint64_t seed);

/** One sample per setting: no group reaches count >= 2. */
Profiler allSingletonProfile(const std::vector<double> &settings,
                             double alpha, double base);

/** Several samples per setting, all identical: zero variance. */
Profiler zeroVarianceProfile(const std::vector<double> &settings,
                             double alpha, double base, int samples_per);

/** Distinct settings, same mean performance: alpha ~ 0 flat surface. */
Profiler flatSurfaceProfile(const std::vector<double> &settings,
                            double level, double noise, int samples_per,
                            std::uint64_t seed);

/**
 * U-shaped response (paper Sec. 6.6, the MR5420 shape): performance
 * falls then rises across the setting range.  @p curvature scales the
 * quadratic bowl; the valley bottom sits at the middle setting.
 */
Profiler valleyProfile(const std::vector<double> &settings, double base,
                       double curvature, double noise, int samples_per,
                       std::uint64_t seed);

} // namespace smartconf::fault

#endif // SMARTCONF_TESTS_SUPPORT_PROFILE_FAULTS_H_
