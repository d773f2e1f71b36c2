#ifndef SMARTCONF_SCENARIOS_TAPE_SCENARIO_H_
#define SMARTCONF_SCENARIOS_TAPE_SCENARIO_H_

/**
 * @file
 * The base of the four YCSB scenarios (CA6059, HB2149, HB3813,
 * HB6728): every policy evaluated under one seed reads one recorded op
 * stream.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "scenarios/scenario.h"
#include "workload/ycsb.h"

namespace smartconf::workload {
class YcsbTape;
}

namespace smartconf::scenarios {

/**
 * A scenario whose op stream is ShardedYcsbGenerator(streamParams(),
 * Rng(seed).fork(2)), its per-tick parameters a function of the tick
 * alone.  runPolicies records the stream once into a workload::YcsbTape
 * and replays it to each policy in turn; run() is its one-policy case.
 */
class TapeScenario : public Scenario
{
  public:
    using Scenario::Scenario;

    ScenarioResult run(const Policy &policy,
                       std::uint64_t seed) const final;

    std::vector<ScenarioResult>
    runPolicies(std::span<const Policy> policies,
                std::uint64_t seed) const final;

  protected:
    /** The stream's parameters at tick 0. */
    virtual workload::YcsbParams streamParams() const = 0;

    /** One policy's evaluation, its ops read from @p tape. */
    virtual ScenarioResult runOnTape(const Policy &policy,
                                     std::uint64_t seed,
                                     workload::YcsbTape &tape) const = 0;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_TAPE_SCENARIO_H_
