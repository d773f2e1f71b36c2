#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "exec/disk_cache.h"
#include "exec/run_cache.h"
#include "exec/sweep.h"
#include "fleet/fleet.h"
#include "sim/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using smartconf::exec::DiskRunCache;
using smartconf::scenarios::Policy;
using smartconf::scenarios::ScenarioResult;

const std::array<const char *, kPolicies> kPolicyNames = {"smart", "patch",
                                                          "buggy"};

bool
sizesFor(const std::string &workload, Sizes &out)
{
    // Full size: a 24-seed sweep (the paper's evaluation range at seed
    // 1), a fleet large enough that the serial coordinator epoch is a
    // visible share of the run, and a store cycle of 256 real results
    // (~37 MB).  Background size: the 72-job sweep and 10k-tenant fleet of
    // the bench_* tools, and 128 results.  A 16-result cycle after a
    // full-size sweep or fleet was slower and unsteady: its put and get
    // medians spread 0.55 and 0.3 of their median over seven runs.
    constexpr Sizes kBackground{4, 10000, 128};
    out = kBackground;
    if (workload == "sweep")
        out.sweep_seeds = 24;
    else if (workload == "fleet")
        out.fleet_tenants = 100000;
    else if (workload == "store")
        out.store_results = 256;
    else
        return false;
    return true;
}

const std::vector<std::string> &
scenarioIds()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> v;
        for (const auto &s : smartconf::scenarios::makeAllScenarios())
            v.push_back(s->info().id);
        return v;
    }();
    return ids;
}

const char *
plantOf(const std::string &id)
{
    if (id == "HD4995")
        return "dfs";
    if (id == "MR2820")
        return "mapreduce";
    return "kvstore";
}

std::uint64_t
sweepFirstSeed(std::uint64_t workload_seed, std::size_t n_seeds)
{
    return 1 + ((workload_seed - 1) % 1000000) * n_seeds;
}

namespace {

struct PlanRow
{
    std::string id;
    std::array<Policy, kPolicies> policies;
    std::array<std::string, kPolicies> span_names;
};

const std::vector<PlanRow> &
plan()
{
    static const std::vector<PlanRow> rows = [] {
        std::vector<PlanRow> v;
        for (const auto &s : smartconf::scenarios::makeAllScenarios()) {
            const auto &info = s->info();
            PlanRow row;
            row.id = info.id;
            row.policies = {Policy::smart(),
                            Policy::makeStatic(info.patch_default),
                            Policy::makeStatic(info.buggy_default)};
            for (std::size_t p = 0; p < kPolicies; ++p)
                row.span_names[p] =
                    "scenarios.run." + info.id + "." + kPolicyNames[p];
            v.push_back(std::move(row));
        }
        return v;
    }();
    return rows;
}

double
msBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) / 1e6;
}

} // namespace

SweepPass
runSweepPass(std::uint64_t first_seed, std::size_t n_seeds,
             std::size_t workers, Tracer *tracer,
             std::vector<ScenarioResult> *keep)
{
    using smartconf::exec::RunCache;
    using smartconf::exec::SweepJob;

    struct Slot
    {
        std::size_t scenario, policy;
        std::int64_t start = -1, end = -1;
    };
    const auto &rows = plan();
    std::vector<Slot> slots;
    std::vector<SweepJob> jobs;
    const std::uint32_t run_span = tracer ? tracer->newId() : 0;
    for (std::size_t s = 0; s < rows.size(); ++s)
        for (std::size_t p = 0; p < kPolicies; ++p)
            for (std::size_t k = 0; k < n_seeds; ++k) {
                const std::string &id = rows[s].id;
                const Policy &pol = rows[s].policies[p];
                const std::uint64_t seed = first_seed + k;
                slots.push_back({s, p});
                if (!tracer) {
                    jobs.push_back(SweepJob::forScenario(id, pol, seed));
                    continue;
                }
                // Same work as forScenario, with a span around
                // Scenario::run; every span of the job shares its id.
                // The body indexes `slots` only once it stops growing.
                const std::size_t j = slots.size() - 1;
                const char *name = rows[s].span_names[p].c_str();
                jobs.push_back(SweepJob::custom(
                    RunCache::key(id, pol, seed),
                    [&slots, j, id, pol, seed, tracer, name, run_span] {
                        auto scn = smartconf::scenarios::makeScenario(id);
                        if (!scn)
                            throw std::invalid_argument("unknown " + id);
                        const std::uint32_t job = tracer->newId();
                        ScopedSpan span(tracer, "scenarios.job", run_span,
                                        job);
                        Span run;
                        run.id = tracer->newId();
                        run.parent = span.id();
                        run.job = job;
                        run.name = name;
                        run.start_ns = nowNs();
                        ScenarioResult r = scn->run(pol, seed);
                        run.end_ns = nowNs();
                        tracer->record(run);
                        slots[j].start = run.start_ns;
                        slots[j].end = run.end_ns;
                        return r;
                    }));
            }

    SweepPass out;
    out.jobs = jobs.size();
    smartconf::exec::SweepOptions opts;
    opts.jobs = workers;
    smartconf::exec::SweepRunner runner(opts);
    std::vector<ScenarioResult> results;
    const std::int64_t t0 = nowNs();
    try {
        results = runner.run(jobs);
    } catch (const std::exception &) {
        out.failed = 1;
    }
    const std::int64_t t1 = nowNs();
    out.wall_ms = msBetween(t0, t1);
    out.dedup_hits = runner.cache().stats().hits;
    if (tracer) {
        Span s;
        s.id = run_span;
        s.name = "exec.run";
        s.start_ns = t0;
        s.end_ns = t1;
        tracer->record(s);
    }

    out.digest = kDigestSeed;
    for (const ScenarioResult &r : results) {
        out.ops += r.ops_simulated;
        const std::vector<char> b = DiskRunCache::serializeResult(r);
        out.digest = digestBytes(out.digest, b.data(), b.size());
    }
    if (results.size() != jobs.size())
        out.failed = std::max<std::size_t>(out.failed, 1);

    if (tracer && !results.empty()) {
        // Job spans, re-rooted under the pass's run() interval.
        std::vector<Span> tree(1);
        tree[0].id = 1;
        tree[0].start_ns = t0;
        tree[0].end_ns = t1;
        std::int64_t busy = 0, last_end = t0;
        for (std::size_t j = 0; j < slots.size(); ++j) {
            if (slots[j].start < 0)
                continue; // served by the RunCache: no simulation
            busy += slots[j].end - slots[j].start;
            last_end = std::max(last_end, slots[j].end);
            out.samples.push_back({slots[j].scenario, slots[j].policy,
                                   slots[j].end - slots[j].start,
                                   results[j].ops_simulated});
            Span c;
            c.id = static_cast<std::uint32_t>(tree.size() + 1);
            c.parent = 1;
            c.start_ns = slots[j].start;
            c.end_ns = slots[j].end;
            tree.push_back(c);
        }
        out.busy_frac = static_cast<double>(busy) /
                        (static_cast<double>(t1 - t0) *
                         static_cast<double>(runner.jobs()));
        out.join_ms = msBetween(last_end, t1);
        out.exec_self_ms =
            static_cast<double>(selfTimesNs(tree).front()) / 1e6;
    }
    if (keep)
        *keep = std::move(results);
    return out;
}

Quality
qualityOf(const std::vector<ScenarioResult> &results, std::size_t n_seeds)
{
    Quality q;
    const std::size_t n_scn = scenarioIds().size();
    if (results.size() != n_scn * kPolicies * n_seeds)
        return q;
    double log_sum = 0.0;
    for (std::size_t s = 0; s < n_scn; ++s) {
        double smart = 0.0, patch = 0.0;
        for (std::size_t k = 0; k < n_seeds; ++k) {
            const ScenarioResult &rs = results[(s * kPolicies + 0) * n_seeds + k];
            const ScenarioResult &rp = results[(s * kPolicies + 1) * n_seeds + k];
            smart += rs.tradeoff;
            patch += rp.tradeoff;
            if (rs.violated)
                ++q.smart_violations;
        }
        log_sum += std::log(smart / patch);
    }
    q.smart_tradeoff_gain = std::exp(log_sum / static_cast<double>(n_scn));
    return q;
}

FleetRun
runFleetOnce(std::uint32_t tenants, std::int64_t ticks, std::uint64_t seed,
             bool smart, smartconf::exec::ThreadPool *pool, Tracer *tracer)
{
    smartconf::fleet::FleetParams p;
    p.tenants = tenants;
    p.ticks = ticks;
    p.seed = seed;
    p.smart = smart;
    p.pool = pool;
    FleetRun out;
    smartconf::fleet::FleetResult r;
    const std::int64_t t0 = nowNs();
    try {
        ScopedSpan span(tracer, "fleet.run");
        r = smartconf::fleet::runFleet(p);
    } catch (const std::exception &) {
        out.failed = true;
    }
    out.wall_ms = msBetween(t0, nowNs());
    out.tenant_ticks = static_cast<std::uint64_t>(tenants) *
                       static_cast<std::uint64_t>(ticks);
    out.violation_rate = r.violation_rate_mean;
    out.digest = r.checksum;
    out.epochs = r.epochs;
    out.inner_wall_ms = r.wall_ms;
    out.coord = r.coord;
    return out;
}

namespace {

template <typename T>
void
shuffle(std::vector<T> &v, smartconf::sim::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace

StoreInput
makeStoreInput(std::uint64_t seed, const Sizes &sizes,
               const std::vector<ScenarioResult> &real)
{
    using smartconf::exec::RunCache;
    if (real.empty())
        throw std::invalid_argument("makeStoreInput: no real results");
    StoreInput in;
    smartconf::sim::Rng rng(seed ^ 0x53544f5245ULL);
    const std::uint64_t base = 1000000 + (seed % 1000000) * 10000;
    in.payloads = real;
    for (const ScenarioResult &r : in.payloads)
        in.bytes.push_back(DiskRunCache::serializeResult(r));

    const std::size_t n = sizes.store_results;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t payload =
            static_cast<std::uint32_t>(i % real.size());
        const std::string &scn = in.payloads[payload].scenario_id;
        const Policy pol = Policy::smart();
        in.keys.push_back(RunCache::key(scn, pol, base + i));
        in.absent.push_back(RunCache::key(scn, pol, base + n + i));
        in.payload_of.push_back(payload);
    }

    // Four flush batches, as four sweep processes would leave them; each
    // later batch re-puts an eighth of the previous one (newest wins).
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    shuffle(order, rng);
    constexpr std::size_t kBatches = 4;
    for (std::size_t b = 0; b < kBatches; ++b) {
        std::vector<std::uint32_t> batch(order.begin() + b * n / kBatches,
                                         order.begin() +
                                             (b + 1) * n / kBatches);
        if (b > 0) {
            const auto &prev = in.batches.back();
            batch.insert(batch.end(), prev.begin(),
                         prev.begin() + prev.size() / 8);
        }
        in.batches.push_back(std::move(batch));
    }
    in.get_order = order;
    shuffle(in.get_order, rng);
    return in;
}

namespace {

std::uint64_t
bytesOnDisk(const std::string &root)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec))
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    return total;
}

/** Whether a load's outcome is the expected one (payload < 0: absent). */
bool
expected(const StoreInput &in, bool hit, const ScenarioResult &out,
         long payload)
{
    if (payload < 0)
        return !hit; // absent key: a hit is a phantom
    return hit && DiskRunCache::serializeResult(out) ==
                      in.bytes[static_cast<std::size_t>(payload)];
}

/** Load @p key and check it against the expectation; false = failure. */
bool
checkedLoad(DiskRunCache &cache, const StoreInput &in,
            const std::string &key, long payload, double *us)
{
    ScenarioResult out;
    const std::int64_t t0 = nowNs();
    const bool hit = cache.load(key, out);
    if (us)
        *us = static_cast<double>(nowNs() - t0) / 1e3;
    return expected(in, hit, out, payload);
}

} // namespace

std::size_t
warmStoreCodec(const StoreInput &in)
{
    std::size_t bad = 0;
    ScenarioResult out;
    for (std::size_t i = 0; i < in.payloads.size(); ++i) {
        const std::vector<char> b =
            DiskRunCache::serializeResult(in.payloads[i]);
        const bool ok =
            DiskRunCache::checksum64(b.data(), b.size()) ==
                DiskRunCache::checksum64(in.bytes[i].data(),
                                         in.bytes[i].size()) &&
            DiskRunCache::parseResult(b.data(), b.size(), out);
        bad += ok ? 0 : 1;
    }
    return bad;
}

StoreCycle
runStoreCycle(const StoreInput &in, const std::string &root, Tracer *tracer)
{
    StoreCycle c;
    std::error_code ec;
    fs::remove_all(root, ec);
    smartconf::store::SegmentStore::Options opts;
    // Compaction is phase 3, synchronous; no background thread races
    // the timed puts.
    opts.auto_compact = false;

    {
        DiskRunCache cache(root, opts);

        // Phase 1: puts, a flush after each batch.  Every store() call is
        // timed; flushes are timed on their own.  They are file-system
        // metadata work (segment files, a MANIFEST replace) whose cost
        // drifts twofold within a minute on a shared disk.
        for (const auto &batch : in.batches) {
            for (const std::uint32_t k : batch) {
                const ScenarioResult &r = in.payloads[in.payload_of[k]];
                const std::int64_t p0 = nowNs();
                const bool ok = cache.store(in.keys[k], r);
                const std::int64_t p1 = nowNs();
                if (tracer)
                    tracer->record({tracer->newId(), 0, 0, "store.put", p0,
                                    p1});
                c.put_us.push_back(static_cast<double>(p1 - p0) / 1e3);
                ++c.attempted;
                c.failed += ok ? 0 : 1;
            }
            const std::int64_t f0 = nowNs();
            const bool flushed = cache.flush();
            const std::int64_t f1 = nowNs();
            if (tracer)
                tracer->record({tracer->newId(), 0, 0, "store.flush", f0,
                                f1});
            c.flush_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
            ++c.attempted;
            c.failed += flushed ? 0 : 1;
        }

        // Phase 2: present-key gets interleaved with absent-key gets.
        for (std::size_t i = 0; i < in.get_order.size(); ++i) {
            const std::uint32_t k = in.get_order[i];
            double us = 0.0;
            const std::int64_t g0 = nowNs();
            const bool ok = checkedLoad(cache, in, in.keys[k],
                                        in.payload_of[k], &us);
            if (tracer)
                tracer->record({tracer->newId(), 0, 0, "store.get", g0,
                                g0 + static_cast<std::int64_t>(us * 1e3)});
            c.hit_us.push_back(us);
            c.attempted += 2;
            c.failed += ok ? 0 : 1;
            const std::int64_t m0 = nowNs();
            const bool miss_ok =
                checkedLoad(cache, in, in.absent[k], -1, &us);
            if (tracer)
                tracer->record({tracer->newId(), 0, 0, "store.miss", m0,
                                m0 + static_cast<std::int64_t>(us * 1e3)});
            c.miss_us.push_back(us);
            c.failed += miss_ok ? 0 : 1;
        }

        // Phase 3: synchronous compaction, then a clean verify.
        const std::int64_t k0 = nowNs();
        c.compaction = cache.segmentStore().compact();
        const std::int64_t k1 = nowNs();
        c.compact_ms = static_cast<double>(k1 - k0) / 1e6;
        if (tracer)
            tracer->record({tracer->newId(), 0, 0, "store.compact", k0, k1});
        ++c.attempted;
        if (!cache.segmentStore().verify().clean())
            ++c.failed;
        c.io = cache.ioStats();
    }
    // Space amplification: re-puts are newest-wins, so the live payload
    // is one copy per key.
    std::uint64_t live_bytes = 0;
    for (const std::uint32_t p : in.payload_of)
        live_bytes += in.bytes[p].size();
    c.disk_bytes_per_payload_byte =
        static_cast<double>(bytesOnDisk(root)) /
        static_cast<double>(live_bytes);

    // Phase 4: a fresh DiskRunCache on the same root (the second-process
    // path): construction to first hit, then every fourth key.
    {
        const std::uint32_t first = in.get_order.front();
        ScenarioResult out;
        const std::int64_t r0 = nowNs();
        DiskRunCache cache(root, opts);
        const bool hit = cache.load(in.keys[first], out);
        const std::int64_t r1 = nowNs();
        const bool ok = expected(in, hit, out, in.payload_of[first]);
        c.reopen_ms = static_cast<double>(r1 - r0) / 1e6;
        if (tracer)
            tracer->record({tracer->newId(), 0, 0, "store.reopen", r0, r1});
        ++c.attempted;
        c.failed += ok ? 0 : 1;
        for (std::size_t i = 4; i < in.get_order.size(); i += 4) {
            const std::uint32_t k = in.get_order[i];
            c.attempted += 2;
            c.failed += checkedLoad(cache, in, in.keys[k], in.payload_of[k],
                                    nullptr)
                            ? 0
                            : 1;
            c.failed +=
                checkedLoad(cache, in, in.absent[k], -1, nullptr) ? 0 : 1;
        }
        c.reopen_io = cache.ioStats();
    }
    fs::remove_all(root, ec);
    return c;
}

} // namespace perfbench
