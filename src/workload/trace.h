#ifndef SMARTCONF_WORKLOAD_TRACE_H_
#define SMARTCONF_WORKLOAD_TRACE_H_

/**
 * @file
 * Operation-trace record and replay.
 *
 * The paper's evaluation uses synthetic generators, but a downstream
 * user will want to re-run SmartConf against *their* production
 * workload.  A Trace captures the per-tick operation stream of any
 * generator (or of a live system's log) in a simple text format —
 * `tick type key size_mb`, one line per operation — and replays it
 * deterministically, so profiling and evaluation can run on recorded
 * traffic instead of distributions.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "workload/ycsb.h"

namespace smartconf::workload {

/** A recorded stream of timestamped key-value operations. */
class Trace
{
  public:
    /** One recorded operation. */
    struct Record
    {
        sim::Tick tick = 0;
        Op op;
    };

    /** Append @p ops as occurring at @p tick (ticks must not regress). */
    void record(sim::Tick tick, const std::vector<Op> &ops);

    /** All records in time order. */
    const std::vector<Record> &records() const { return records_; }

    /** Number of recorded operations. */
    std::size_t size() const { return records_.size(); }

    /** Last tick with recorded activity; -1 when empty. */
    sim::Tick horizon() const;

    /** Serialize to the line format (round-trip safe). */
    std::string serialize() const;

    /**
     * Parse the line format.  Lines are `tick type key size_mb` with
     * type `R` or `W`; `#` comments and blank lines are skipped.
     *
     * @throws std::runtime_error with a line number on malformed input.
     */
    static Trace parse(const std::string &text);

  private:
    std::vector<Record> records_;
};

/**
 * Minimal diurnal (day/night) load shape: a smooth multiplier that
 * bottoms out at `trough` and peaks at 1.0 once per `period` ticks.
 * Production traffic is rarely stationary, and the paper's controllers
 * must survive load swings — this is the canonical swing to record.
 */
struct DiurnalCurve
{
    double trough = 0.25;   ///< night-time fraction of peak load
    sim::Tick period = 240; ///< ticks per simulated day
    sim::Tick phase = 0;    ///< tick offset (staggers tenant mixes)

    /** Multiplier in [trough, 1]; trough at t + phase = 0, peak
     *  mid-period.  The phase offset lets a fleet of tenants share one
     *  curve shape while peaking at different times of day. */
    double at(sim::Tick t) const;
};

/**
 * Record @p ticks of a diurnal YCSB workload: a ShardedYcsbGenerator
 * seeded from @p rng produces each tick's batch (through the sharded
 * data plane's fixed lane layout) with ops/tick scaled by @p curve.
 * @p params supplies the peak rate and mix.
 */
Trace recordDiurnal(const YcsbParams &params, const DiurnalCurve &curve,
                    sim::Rng rng, sim::Tick ticks);

/**
 * Replays a Trace tick by tick through the generator-shaped interface
 * the scenario drivers consume.
 */
class TraceReplayer
{
  public:
    explicit TraceReplayer(Trace trace);

    /** Operations recorded for tick @p now (call with advancing now). */
    std::vector<Op> tick(sim::Tick now);

    /** True once every record has been replayed. */
    bool exhausted() const { return next_ >= trace_.records().size(); }

    /** Restart from the beginning. */
    void rewind() { next_ = 0; }

  private:
    Trace trace_;
    std::size_t next_ = 0;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_TRACE_H_
