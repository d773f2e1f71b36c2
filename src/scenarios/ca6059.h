#ifndef SMARTCONF_SCENARIOS_CA6059_H_
#define SMARTCONF_SCENARIOS_CA6059_H_

/**
 * @file
 * CA6059: `memtable_total_space_in_mb` limits the memtable size.
 * Too big, OOM; too small, write latency hurts (indirect, hard,
 * unconditional).
 *
 * Evaluation: all-write YCSB, then at ~200 s the mix becomes 0.9W with a
 * 0.5 read index-cache ratio — the cache gradually claims 150 MB of
 * heap, squeezing the room the memtable may safely occupy.
 */

#include "scenarios/tape_scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Workload/server knobs for the CA6059 driver. */
struct Ca6059Options
{
    double heap_mb = 495.0;
    sim::Tick phase1_ticks = 2000;
    sim::Tick total_ticks = 7000;
    double phase1_write_fraction = 1.0;
    double phase2_write_fraction = 0.9;
    double request_size_mb = 1.0;
    double ops_per_tick = 10.0;
    double cache_full_mb = 300.0;   ///< heap of a ratio-1.0 index cache
    double phase2_cache_ratio = 0.5;
    double cache_fill_per_tick = 0.5; ///< cache warm-up rate (MB/tick)
    double other_base_mb = 120.0;
    double other_walk_mb = 6.0;
    double other_max_mb = 180.0;
    sim::Tick control_period = 1;
};

/** The CA6059 case study. */
class Ca6059Scenario : public TapeScenario
{
  public:
    Ca6059Scenario();
    explicit Ca6059Scenario(const Ca6059Options &opts);

    ProfileSummary profile(std::uint64_t seed) const override;

    const Ca6059Options &options() const { return opts_; }

  private:
    workload::YcsbParams streamParams() const override;
    ScenarioResult runOnTape(const Policy &policy, std::uint64_t seed,
                             workload::YcsbTape &tape) const override;

    Ca6059Options opts_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_CA6059_H_
