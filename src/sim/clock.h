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

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_CLOCK_H_
