#ifndef SMARTCONF_SIM_CLOCK_H_
#define SMARTCONF_SIM_CLOCK_H_

/**
 * @file
 * Simulated time.
 *
 * Time is an integer tick count; scenarios define the tick length (the
 * case studies use 100 ms ticks, so 600 s of simulated server time is
 * 6000 ticks).  Each run is a plain loop over ticks, and keeping them
 * integral keeps periodic work (t % period == 0) exact.
 */

#include <cstdint>

namespace smartconf::sim {

/** Simulated time in ticks. */
using Tick = std::int64_t;

/** Converts between ticks and seconds for reporting. */
class TickConverter
{
  public:
    /** @param ticks_per_second granularity of the simulation. */
    explicit TickConverter(double ticks_per_second = 10.0)
        : ticks_per_second_(ticks_per_second)
    {}

    double toSeconds(Tick t) const
    {
        return static_cast<double>(t) / ticks_per_second_;
    }

    Tick toTicks(double seconds) const
    {
        return static_cast<Tick>(seconds * ticks_per_second_ + 0.5);
    }

    double ticksPerSecond() const { return ticks_per_second_; }

  private:
    double ticks_per_second_;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_CLOCK_H_
