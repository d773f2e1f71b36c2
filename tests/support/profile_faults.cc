#include "support/profile_faults.h"

#include "sim/rng.h"

namespace smartconf::fault {

Profiler
singleSettingProfile(double setting, double mean, double noise,
                     int samples, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Profiler p;
    for (int i = 0; i < samples; ++i)
        p.record(setting, mean + rng.gaussian(0.0, noise));
    return p;
}

Profiler
allSingletonProfile(const std::vector<double> &settings, double alpha,
                    double base)
{
    Profiler p;
    for (const double s : settings)
        p.record(s, base + alpha * s);
    return p;
}

Profiler
zeroVarianceProfile(const std::vector<double> &settings, double alpha,
                    double base, int samples_per)
{
    Profiler p;
    for (const double s : settings) {
        const double perf = base + alpha * s;
        for (int i = 0; i < samples_per; ++i)
            p.record(s, perf);
    }
    return p;
}

Profiler
flatSurfaceProfile(const std::vector<double> &settings, double level,
                   double noise, int samples_per, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Profiler p;
    for (const double s : settings) {
        for (int i = 0; i < samples_per; ++i)
            p.record(s, level + rng.gaussian(0.0, noise));
    }
    return p;
}

Profiler
valleyProfile(const std::vector<double> &settings, double base,
              double curvature, double noise, int samples_per,
              std::uint64_t seed)
{
    sim::Rng rng(seed);
    Profiler p;
    const double mid =
        settings.empty()
            ? 0.0
            : settings[settings.size() / 2];
    for (const double s : settings) {
        const double d = s - mid;
        for (int i = 0; i < samples_per; ++i) {
            p.record(s, base + curvature * d * d +
                            rng.gaussian(0.0, noise));
        }
    }
    return p;
}

} // namespace smartconf::fault
