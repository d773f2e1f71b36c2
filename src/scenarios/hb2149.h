#ifndef SMARTCONF_SCENARIOS_HB2149_H_
#define SMARTCONF_SCENARIOS_HB2149_H_

/**
 * @file
 * HB2149: `global.memstore.lowerLimit` decides how much memstore data is
 * flushed when writes hit the blocking watermark.  Too big, writes are
 * blocked for too long; too small, writes are blocked too often
 * (direct, soft latency constraint, conditional).
 *
 * This case exercises two SmartConf features the others do not: a
 * floating-point configuration, and a *run-time goal change* — the
 * worst-case write-block constraint tightens from 10 s to 5 s at the
 * phase boundary via the setGoal API (Table 6: "1.0W, 1MB, 10s" ->
 * "1.0W, 1MB, 5s").
 */

#include "scenarios/tape_scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Workload/memstore knobs for the HB2149 driver. */
struct Hb2149Options
{
    sim::Tick phase1_ticks = 3000;
    sim::Tick total_ticks = 6000;
    double phase1_goal_ticks = 100.0; ///< 10 s worst-case block
    double phase2_goal_ticks = 50.0;  ///< 5 s worst-case block
    double ops_per_tick = 5.0;
    double request_size_mb = 1.0;
    double upper_limit_mb = 256.0;
    double flush_rate_mb_per_tick = 1.0;
    double flush_setup_ticks = 20.0;
};

/** The HB2149 case study. */
class Hb2149Scenario : public TapeScenario
{
  public:
    Hb2149Scenario();
    explicit Hb2149Scenario(const Hb2149Options &opts);

    ProfileSummary profile(std::uint64_t seed) const override;

    const Hb2149Options &options() const { return opts_; }

  private:
    workload::YcsbParams streamParams() const override;
    ScenarioResult runOnTape(const Policy &policy, std::uint64_t seed,
                             workload::YcsbTape &tape) const override;

    Hb2149Options opts_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_HB2149_H_
