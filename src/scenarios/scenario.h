#ifndef SMARTCONF_SCENARIOS_SCENARIO_H_
#define SMARTCONF_SCENARIOS_SCENARIO_H_

/**
 * @file
 * Case-study scenarios (paper Table 6) and configuration policies.
 *
 * A Scenario reproduces one of the paper's six PerfConf issues: it wires
 * the relevant simulated subsystem to a workload, runs the paper's
 * two-phase evaluation, and reports whether the performance constraint
 * held plus the secondary (trade-off) metric.  A Policy selects how the
 * PerfConf is set during the run: a static value (the traditional
 * configuration interface) or SmartConf (including the Fig. 7 ablated
 * controllers).
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "fault/spec.h"
#include "sim/metrics.h"

namespace smartconf::scenarios {

/** How the PerfConf is managed during an evaluation run. */
struct Policy
{
    enum class Kind
    {
        Static,             ///< launch-time value, never adjusted
        Smart,              ///< full SmartConf controller
        SmartSinglePole,    ///< Fig. 7: no danger-zone pole switch
        SmartNoVirtualGoal, ///< Fig. 7: tracks the raw constraint
    };

    Kind kind = Kind::Smart;
    double value = 0.0; ///< the setting, for Kind::Static
    std::string label;  ///< display name ("SmartConf", "Static-90", ...)

    /** Force the regular pole (Fig. 7 uses 0.9 for both controllers). */
    std::optional<double> pole_override;

    /**
     * Optional fault-injection campaign for the evaluation run.  Null
     * (the default) means no chaos machinery is instantiated at all —
     * the scenario's control sites see inactive hooks, which are
     * inline null checks.  Shared and immutable so Policy stays
     * cheaply copyable across the sweep/exec layers.
     */
    std::shared_ptr<const fault::ChaosSpec> chaos;

    static Policy makeStatic(double v, std::string label = "");
    static Policy smart();
    static Policy singlePole(double pole = 0.9);
    static Policy noVirtualGoal();

    /** Copy of this policy with @p spec injected during evaluation. */
    Policy withChaos(const fault::ChaosSpec &spec) const;

    bool isSmart() const { return kind != Kind::Static; }
    bool hasChaos() const { return chaos != nullptr && chaos->any(); }

    /**
     * Stable string encoding every field that can change a run's
     * outcome (kind, static value, pole_override, and the label, which
     * feeds through to ScenarioResult::policy_label).  Two policies
     * compare equal iff their cacheKey()s are equal — the run cache
     * keys on this, so distinct policies can never be conflated.
     */
    std::string cacheKey() const;

    friend bool operator==(const Policy &a, const Policy &b)
    {
        return a.cacheKey() == b.cacheKey();
    }
    friend bool operator!=(const Policy &a, const Policy &b)
    {
        return !(a == b);
    }
};

/** Everything a Fig. 5-style comparison needs from one run. */
struct ScenarioResult
{
    std::string scenario_id;
    std::string policy_label;

    /** True when the constraint was violated (OOM/OOD/latency breach). */
    bool violated = false;

    /** Simulated seconds of the first violation; -1 when none. */
    double violation_time_s = -1.0;

    /** Worst observed value of the constrained metric. */
    double worst_goal_metric = 0.0;

    /** The constraint value in force (last phase). */
    double goal_value = 0.0;

    /**
     * Canonical trade-off score, always higher-is-better (throughput in
     * ops/s, or 1/latency for latency trade-offs).  Fig. 5 speedups are
     * ratios of this score.
     */
    double tradeoff = 0.0;

    /** Trade-off in its native unit, for display. */
    double raw_tradeoff = 0.0;

    /** Mean configuration value over the run (diagnostic). */
    double mean_conf = 0.0;

    /**
     * Workload operations simulated by the evaluation run (requests
     * generated / tasks completed, per the scenario's natural unit).
     * Feeds the bench harnesses' ops-per-second throughput tracking.
     */
    std::uint64_t ops_simulated = 0;

    /**
     * Faults injected by the policy's chaos campaign (0 when chaos is
     * off).  Lets tests assert a fault was *demonstrably* injected
     * before claiming the run survived it.
     */
    std::uint64_t faults_injected = 0;

    /**
     * Workload ops counted per logical lane (workload::kShards
     * entries, pinned lane order; empty for scenarios without a
     * lane-counted producer).  A function of the logical layout alone
     * — part of the byte-identical result surface — and the source of
     * bench_sweep's shard-imbalance stat.
     */
    std::vector<std::uint64_t> shard_ops;

    /** Goal metric over time (Fig. 6b / 7 / 8 top). */
    sim::TimeSeries perf_series;

    /** Configuration value over time (Fig. 6c / 8 bottom). */
    sim::TimeSeries conf_series;

    /** Cumulative trade-off metric over time (Fig. 6a). */
    sim::TimeSeries tradeoff_series;
};

/** Static description of a scenario (feeds Table 6 and Fig. 5). */
struct ScenarioInfo
{
    std::string id;          ///< "HB3813"
    std::string system;      ///< "HBase"
    std::string conf_name;   ///< "ipc.server.max.queue.size"
    std::string metric_name; ///< "memory_consumption_max"
    std::string description; ///< one-line issue description
    std::string constraint_desc; ///< the main user concern
    std::string tradeoff_desc;   ///< the metric optimized under it

    bool conditional = false; ///< Table 6 ?-?-? flags
    bool direct = false;
    bool hard = false;

    std::string profiling_workload; ///< Table 6 columns
    std::string phase1_workload;
    std::string phase2_workload;

    double buggy_default = 0.0; ///< original default (fails)
    double patch_default = 0.0; ///< developers' patched default

    std::vector<double> profiling_settings; ///< 4 settings (Sec. 6.1)
    std::vector<double> static_candidates;  ///< exhaustive-search grid

    bool tradeoff_higher_better = true;
    std::string tradeoff_unit; ///< "ops/s", "s", ...
};

/**
 * One reproduced case study.
 */
class Scenario
{
  public:
    explicit Scenario(ScenarioInfo info) : info_(std::move(info)) {}
    virtual ~Scenario() = default;

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    const ScenarioInfo &info() const { return info_; }

    /**
     * Run the profiling workload (paper: 4 settings x 10 samples) and
     * synthesize controller parameters.
     */
    virtual ProfileSummary profile(std::uint64_t seed) const = 0;

    /**
     * Run the two-phase evaluation workload under @p policy.
     *
     * Smart policies internally run profile() first (on a different
     * seed — the paper stresses that profiling and evaluation workloads
     * differ).
     */
    virtual ScenarioResult run(const Policy &policy,
                               std::uint64_t seed) const = 0;

    /**
     * Run the evaluation once per entry of @p policies, all under
     * @p seed: result i equals run(policies[i], seed) to the bit.  The
     * default calls run() for each policy.  The four YCSB scenarios
     * draw their op stream once for all the policies
     * (workload::YcsbTape), and their run() is the one-policy call of
     * this.  A sweep makes one such call per (scenario, seed) group
     * (exec::SweepRunner).
     */
    virtual std::vector<ScenarioResult>
    runPolicies(std::span<const Policy> policies,
                std::uint64_t seed) const;

  protected:
    ScenarioInfo info_;
};

/** All six case studies in Table 6 order. */
std::vector<std::unique_ptr<Scenario>> makeAllScenarios();

/** Construct one scenario by id ("CA6059" ... "MR2820"); nullptr if unknown. */
std::unique_ptr<Scenario> makeScenario(const std::string &id);

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_SCENARIO_H_
