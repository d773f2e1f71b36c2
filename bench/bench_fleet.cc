/**
 * @file
 * Fleet-scale multi-tenant benchmark
 * (`bench_fleet --json > BENCH_fleet.json`).
 *
 * Sweeps the tenant count (default 1k and 10k; `--tenants` takes a
 * comma list up to 100k+) through runFleet(): every tenant runs its
 * own SmartConf loop, capacity-class tenants coordinate under
 * cluster-wide super-hard goals, and traffic is Zipf-skewed across
 * tenants with archetype-staggered diurnal phases.  Each size is also
 * run with controllers disabled (confs pinned at the scenario patch
 * defaults) so the violation-rate delta the controllers buy is part
 * of the tracked payload.
 *
 * Reported per size: per-tenant goal-violation rates (mean / p99 /
 * fraction of tenants ever violating), convergence time (p50 / p99
 * ticks to settle into the goal band), coordinator cost (attach
 * re-assertions, fan-outs, serial wall time per epoch), the wall time
 * of set-up (plan, construction, binding) and of the reduction (with
 * teardown), and an end-state checksum.  Every non-wall field is a
 * pure function of (params, seed) — byte-identical at any `--jobs` —
 * so the payload participates in check_regression's determinism sha
 * exactly like the sweep bench.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "fleet/fleet.h"
#include "sim/kernels.h"
#include "sim/simd.h"

namespace {

/** `--tenants N[,M...]`: every count a whole integer from 1 to 2^32-1. */
std::vector<std::uint32_t>
parseTenantList(const char *arg)
{
    std::vector<std::uint32_t> out;
    const std::string list = arg;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = list.find(',', begin);
        const std::string item = list.substr(begin, comma - begin);
        const std::uint64_t n = smartconf::exec::parseIntFlag(
            "--tenants", item.c_str(), 1, UINT32_MAX);
        out.push_back(static_cast<std::uint32_t>(n));
        if (comma == std::string::npos)
            return out;
        begin = comma + 1;
    }
}

/**
 * The value of `--name V` / `--name=V` when argv[i] is that flag
 * (advancing @p i past a separate value), else nullptr.  A flag with
 * no value exits with status 2.
 */
const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0)
        return nullptr;
    if (argv[i][len] == '=')
        return argv[i] + len + 1;
    if (argv[i][len] != '\0')
        return nullptr;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_fleet: %s needs a value\n", flag);
        std::exit(2);
    }
    return argv[++i];
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smartconf;

    const exec::SweepArgs args = exec::parseSweepArgs(argc, argv);

    std::vector<std::uint32_t> tenant_counts = {1000, 10000};
    fleet::FleetParams base;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(argc, argv, i, "--tenants"))
            tenant_counts = parseTenantList(v);
        else if (const char *v = flagValue(argc, argv, i, "--ticks"))
            base.ticks = static_cast<sim::Tick>(
                exec::parseIntFlag("--ticks", v, 1, INT64_MAX));
        else if (const char *v = flagValue(argc, argv, i, "--seed"))
            base.seed = exec::parseIntFlag("--seed", v, 0, UINT64_MAX);
    }

    // Resolve the executor exactly like SweepRunner: 0 = hardware
    // concurrency; a pool of 1 runs every group on this thread.
    const std::size_t jobs = args.sweep.jobs == 0
                                 ? exec::ThreadPool::defaultConcurrency()
                                 : args.sweep.jobs;
    exec::ThreadPool pool(jobs);

    struct Sweep
    {
        fleet::FleetResult smart;
        fleet::FleetResult pinned;
    };
    std::vector<Sweep> sweeps;
    for (const std::uint32_t n : tenant_counts) {
        fleet::FleetParams p = base;
        p.tenants = n;
        p.pool = &pool;
        Sweep s;
        p.smart = true;
        s.smart = fleet::runFleet(p);
        p.smart = false;
        s.pinned = fleet::runFleet(p);
        sweeps.push_back(std::move(s));
    }

    if (args.json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"bench_fleet\",\n");
        std::printf("  \"host\": {\"cpus\": %u, \"isa_detected\": "
                    "\"%s\", \"isa_active\": \"%s\", \"compiler\": "
                    "\"%s\"},\n",
                    std::thread::hardware_concurrency(),
                    sim::simd::name(sim::simd::detected()),
                    sim::simd::name(sim::kernels::activeIsa()),
                    __VERSION__);
        std::printf("  \"jobs\": %zu,\n", jobs);
        std::printf("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(base.seed));
        std::printf("  \"ticks\": %lld,\n",
                    static_cast<long long>(base.ticks));
        std::printf("  \"sweeps\": [\n");
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            const fleet::FleetResult &r = sweeps[i].smart;
            const fleet::FleetResult &st = sweeps[i].pinned;
            std::printf("    {\n");
            std::printf("      \"tenants\": %llu,\n",
                        static_cast<unsigned long long>(r.tenants));
            std::printf("      \"epochs\": %llu,\n",
                        static_cast<unsigned long long>(r.epochs));
            std::printf("      \"clusters\": %llu,\n",
                        static_cast<unsigned long long>(r.clusters));
            std::printf(
                "      \"clustered_tenants\": %llu,\n",
                static_cast<unsigned long long>(r.clustered_tenants));
            std::printf("      \"max_interaction\": %.1f,\n",
                        r.max_interaction);
            std::printf("      \"violation_rate_mean\": %.9f,\n",
                        r.violation_rate_mean);
            std::printf("      \"violation_rate_p99\": %.9f,\n",
                        r.violation_rate_p99);
            std::printf("      \"tenants_violated_frac\": %.9f,\n",
                        r.tenants_violated_frac);
            std::printf("      \"convergence_p50_ticks\": %.1f,\n",
                        r.convergence_p50_ticks);
            std::printf("      \"convergence_p99_ticks\": %.1f,\n",
                        r.convergence_p99_ticks);
            std::printf("      \"mean_conf_rel\": %.9f,\n",
                        r.mean_conf_rel);
            std::printf("      \"static_violation_rate_mean\": %.9f,\n",
                        st.violation_rate_mean);
            std::printf("      \"static_violation_rate_p99\": %.9f,\n",
                        st.violation_rate_p99);
            std::printf(
                "      \"coord_attach_calls\": %llu,\n",
                static_cast<unsigned long long>(r.coord.attach_calls));
            std::printf(
                "      \"coord_fanouts\": %llu,\n",
                static_cast<unsigned long long>(r.coord.fanouts));
            std::printf("      \"coord_aggregate_violations\": %llu,\n",
                        static_cast<unsigned long long>(
                            r.coord.aggregate_violations));
            std::printf("      \"coord_epoch_wall_ms\": %.6f,\n",
                        r.coord.epochs
                            ? r.coord.wall_ms /
                                  static_cast<double>(r.coord.epochs)
                            : 0.0);
            std::printf("      \"setup_wall_ms\": %.3f,\n",
                        r.setup_wall_ms);
            std::printf("      \"reduce_wall_ms\": %.3f,\n",
                        r.reduce_wall_ms);
            std::printf("      \"wall_ms\": %.3f,\n", r.wall_ms);
            std::printf("      \"checksum\": \"0x%016llx\",\n",
                        static_cast<unsigned long long>(r.checksum));
            std::printf("      \"per_archetype\": [\n");
            for (std::size_t a = 0; a < r.per_archetype.size(); ++a) {
                const fleet::ArchetypeRow &row = r.per_archetype[a];
                std::printf(
                    "        {\"id\": \"%s\", \"tenants\": %llu, "
                    "\"violation_rate\": %.9f, \"mean_conf_rel\": "
                    "%.9f}%s\n",
                    row.scenario_id.c_str(),
                    static_cast<unsigned long long>(row.tenants),
                    row.violation_rate, row.mean_conf_rel,
                    a + 1 < r.per_archetype.size() ? "," : "");
            }
            std::printf("      ]\n");
            std::printf("    }%s\n",
                        i + 1 < sweeps.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("Fleet-scale multi-tenant benchmark\n\n");
    std::printf("workers (--jobs): %zu, seed: %llu, ticks: %lld\n\n",
                jobs, static_cast<unsigned long long>(base.seed),
                static_cast<long long>(base.ticks));
    std::printf("%-8s %9s %9s %12s %10s %10s %12s %11s\n", "tenants",
                "viol.mean", "viol.p99", "static.mean", "conv.p50",
                "conv.p99", "coord ms/ep", "max N");
    std::printf("%s\n", std::string(88, '-').c_str());
    for (const Sweep &s : sweeps) {
        const fleet::FleetResult &r = s.smart;
        std::printf("%-8llu %9.4f %9.4f %12.4f %10.0f %10.0f %12.4f "
                    "%11.0f\n",
                    static_cast<unsigned long long>(r.tenants),
                    r.violation_rate_mean, r.violation_rate_p99,
                    s.pinned.violation_rate_mean,
                    r.convergence_p50_ticks, r.convergence_p99_ticks,
                    r.coord.epochs
                        ? r.coord.wall_ms /
                              static_cast<double>(r.coord.epochs)
                        : 0.0,
                    r.max_interaction);
    }
    std::printf("\nper-archetype (largest sweep):\n");
    const fleet::FleetResult &last = sweeps.back().smart;
    for (const fleet::ArchetypeRow &row : last.per_archetype)
        std::printf("  %-8s tenants %6llu  viol %7.4f  conf/default "
                    "%6.3f\n",
                    row.scenario_id.c_str(),
                    static_cast<unsigned long long>(row.tenants),
                    row.violation_rate, row.mean_conf_rel);
    std::printf("\nwall: ");
    for (std::size_t i = 0; i < sweeps.size(); ++i)
        std::printf("%s%llu tenants %.1f ms", i ? ", " : "",
                    static_cast<unsigned long long>(
                        sweeps[i].smart.tenants),
                    sweeps[i].smart.wall_ms);
    std::printf("\nserial terms (ms):\n");
    for (const Sweep &s : sweeps)
        std::printf("  %-8llu set-up %7.2f  coordinator %7.2f  "
                    "reduction %7.2f\n",
                    static_cast<unsigned long long>(s.smart.tenants),
                    s.smart.setup_wall_ms, s.smart.coord.wall_ms,
                    s.smart.reduce_wall_ms);
    return 0;
}
