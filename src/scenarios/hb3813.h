#ifndef SMARTCONF_SCENARIOS_HB3813_H_
#define SMARTCONF_SCENARIOS_HB3813_H_

/**
 * @file
 * HB3813: `ipc.server.max.queue.size` limits the RPC-call queue.
 *
 * Too big, OOM; too small, read/write throughput hurts (Table 6;
 * indirect, hard, unconditional).  This is the paper's flagship case:
 * Fig. 6 plots its time series, Fig. 7 runs the controller ablations on
 * a less stable variant, and Fig. 8 couples it with HB6728.
 *
 * Evaluation: YCSB writes whose request size doubles from 1 MB to 2 MB
 * at ~200 s, arrival rate oscillating around the service rate so the
 * queue absorbs bursts.  The 495 MB heap (Fig. 6) holds queued payloads
 * plus a workload-dependent floor.
 */

#include "scenarios/tape_scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Knobs that Fig. 6/7 variants override. */
struct Hb3813Options
{
    double heap_mb = 495.0;
    sim::Tick phase1_ticks = 2000; ///< phase boundary (~200 s)
    sim::Tick total_ticks = 7000;  ///< run length (~700 s)
    double write_fraction = 1.0;   ///< Fig. 7 variant uses 0.7
    double phase1_req_mb = 1.0;
    double phase2_req_mb = 2.0;
    double arrival_base = 10.0;    ///< mean ops/tick
    double arrival_amp = 12.0;     ///< burst amplitude (ops/tick)
    sim::Tick arrival_period = 40; ///< burst period (4 s)
    double arrival_amp2 = 4.0;     ///< slow swell amplitude (ops/tick)
    sim::Tick arrival_period2 = 400; ///< slow swell period (40 s)
    double service_ops_per_tick = 12.0;
    sim::Tick control_period = 1;  ///< control at every queue use

    /**
     * Co-resident allocation burst (Fig. 7): from @p spike_at a
     * background task (think compaction) claims heap at
     * @p spike_mb / @p spike_ramp MB per tick up to @p spike_mb and
     * holds it — the discrete disturbance the paper argues traditional
     * controllers react to too slowly.  Disabled when 0.
     */
    double spike_mb = 0.0;
    sim::Tick spike_at = 0;
    sim::Tick spike_ramp = 50;

    /** Profiling samples per setting (the paper's recipe uses 10). */
    int profile_samples = 10;
};

/** The HB3813 case study. */
class Hb3813Scenario : public TapeScenario
{
  public:
    Hb3813Scenario();
    explicit Hb3813Scenario(const Hb3813Options &opts);

    ProfileSummary profile(std::uint64_t seed) const override;

    const Hb3813Options &options() const { return opts_; }

  private:
    workload::YcsbParams streamParams() const override;
    ScenarioResult runOnTape(const Policy &policy, std::uint64_t seed,
                             workload::YcsbTape &tape) const override;

    Hb3813Options opts_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_HB3813_H_
