#ifndef SMARTCONF_SCENARIOS_HB6728_H_
#define SMARTCONF_SCENARIOS_HB6728_H_

/**
 * @file
 * HB6728: `ipc.server.response.queue.maxsize` limits the RPC-response
 * queue.  Too big, OOM; too small, read/write throughput hurts
 * (indirect, hard, unconditional).
 *
 * Evaluation: a read-heavy YCSB workload whose 2 MB responses buffer in
 * the response queue ahead of a slower network; at ~200 s the mix gains
 * 30 % writes (Table 6: 0.0W -> 0.3W).
 */

#include "scenarios/tape_scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Workload/server knobs for the HB6728 driver. */
struct Hb6728Options
{
    double heap_mb = 495.0;
    sim::Tick phase1_ticks = 2000;
    sim::Tick total_ticks = 7000;
    double phase1_write_fraction = 0.0;
    double phase2_write_fraction = 0.3;
    double request_size_mb = 2.0;
    double arrival_base = 4.0;
    double arrival_amp = 5.0;
    sim::Tick arrival_period = 40;
    double arrival_amp2 = 1.5;      ///< slow swell (ops/tick)
    sim::Tick arrival_period2 = 400;
    double network_mb_per_tick = 10.0;
    std::size_t request_queue_items = 30;
    sim::Tick request_timeout = 30;   ///< client RPC timeout (3 s)
    double memstore_cap_mb = 120.0;   ///< write-path heap in phase 2
    sim::Tick control_period = 1;
};

/** The HB6728 case study. */
class Hb6728Scenario : public TapeScenario
{
  public:
    Hb6728Scenario();
    explicit Hb6728Scenario(const Hb6728Options &opts);

    ProfileSummary profile(std::uint64_t seed) const override;

    const Hb6728Options &options() const { return opts_; }

  private:
    workload::YcsbParams streamParams() const override;
    ScenarioResult runOnTape(const Policy &policy, std::uint64_t seed,
                             workload::YcsbTape &tape) const override;

    Hb6728Options opts_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_HB6728_H_
