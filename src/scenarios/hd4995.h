#ifndef SMARTCONF_SCENARIOS_HD4995_H_
#define SMARTCONF_SCENARIOS_HD4995_H_

/**
 * @file
 * HD4995: `content-summary.limit` bounds the number of files a du
 * (getContentSummary) traverses before releasing the namenode's global
 * lock.  Too big, client writes are blocked for too long; too small, du
 * latency hurts (conditional, indirect, soft).
 *
 * This is the case with a *non-identity transducer*: the controller
 * reasons about the per-chunk lock-hold time (the deputy), and the
 * transducer multiplies by the traversal rate to produce the file-count
 * configuration.  The latency constraint tightens from 20 s to 10 s at
 * the phase boundary (Table 6: multi-clients, 20s -> 10s).
 */

#include "scenarios/scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Workload/namenode knobs for the HD4995 driver. */
struct Hd4995Options
{
    sim::Tick phase1_ticks = 3000;
    sim::Tick total_ticks = 6000;
    double phase1_goal_ticks = 200.0; ///< 20 s worst write wait
    double phase2_goal_ticks = 100.0; ///< 10 s worst write wait
    double traversal_files_per_tick = 20000.0;
    double yield_overhead_ticks = 40.0; ///< traversal revalidation cost
    double write_service_per_tick = 60.0;
    double writes_per_tick = 30.0;  ///< multi-client aggregate rate
    std::uint64_t du_files = 6000000;
    sim::Tick du_period = 800;      ///< du every 80 s
};

/** The HD4995 case study. */
class Hd4995Scenario : public Scenario
{
  public:
    Hd4995Scenario();
    explicit Hd4995Scenario(const Hd4995Options &opts);

    ProfileSummary profile(std::uint64_t seed) const override;
    ScenarioResult run(const Policy &policy,
                       std::uint64_t seed) const override;

    const Hd4995Options &options() const { return opts_; }

  private:
    Hd4995Options opts_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_HD4995_H_
