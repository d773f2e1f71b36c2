/**
 * @file
 * smartconfctl — command-line companion for SmartConf deployments.
 *
 *     smartconfctl lint  <SmartConf.sys> <user.conf>
 *         cross-check the developer and user files; exit 1 on errors.
 *
 *     smartconfctl check <Conf.SmartConf.sys> <SmartConf.sys>
 *         validate a profiling store against its declaration.
 *
 *     smartconfctl synth <Conf.SmartConf.sys>
 *         re-derive controller parameters from the store's raw samples
 *         and print them next to the stored values.
 *
 *     smartconfctl demo
 *         write a small valid deployment into ./smartconf-demo/ and
 *         lint it — a template to start from.
 *
 * Run-cache store commands (all take `--dir ROOT`, default
 * `.smartconf-cache` — the sweep harness's default cache root; the
 * versioned store directory underneath is resolved automatically):
 *
 *     smartconfctl query [--scenario P] [--policy S] [--chaos C|*|-]
 *                        [--seed-min N] [--seed-max N] [--count]
 *         range-scan the segment index: every cached run matching the
 *         filter, straight from the index — zero simulation, zero
 *         payload IO.
 *
 *     smartconfctl stats
 *         segment/shard/entry counts for the store.
 *
 *     smartconfctl compact
 *         merge small sealed segments and dedup superseded entries.
 *
 *     smartconfctl verify
 *         full-scan integrity check (headers, indexes, payload
 *         checksums, record chains); exit 1 on any finding.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/lint.h"
#include "core/profiler.h"
#include "core/sysfile.h"
#include "exec/disk_cache.h"
#include "exec/sweep.h"
#include "store/query.h"
#include "store/segment_store.h"

namespace {

using namespace smartconf;

int
usage()
{
    std::fprintf(stderr,
                 "usage: smartconfctl lint <SmartConf.sys> <user.conf>\n"
                 "       smartconfctl check <store> <SmartConf.sys>\n"
                 "       smartconfctl synth <store>\n"
                 "       smartconfctl demo\n"
                 "       smartconfctl query   [--dir ROOT] [--scenario P]"
                 " [--policy S]\n"
                 "                            [--chaos C|*|-] [--seed-min"
                 " N] [--seed-max N]\n"
                 "                            [--count]\n"
                 "       smartconfctl stats   [--dir ROOT]\n"
                 "       smartconfctl compact [--dir ROOT]\n"
                 "       smartconfctl verify  [--dir ROOT]\n");
    return 2;
}

int
report(const std::vector<LintIssue> &issues)
{
    if (issues.empty()) {
        std::printf("OK: no findings\n");
        return 0;
    }
    std::printf("%s", formatLintIssues(issues).c_str());
    return hasLintErrors(issues) ? 1 : 0;
}

int
cmdLint(const char *sys_path, const char *user_path)
{
    const SysFile sys = parseSysFile(readTextFile(sys_path));
    const UserConf user = parseUserConf(readTextFile(user_path));
    std::printf("%zu configuration(s), %zu goal(s)\n",
                sys.entries.size(), user.goals.size());
    return report(lintDeployment(sys, user));
}

int
cmdCheck(const char *store_path, const char *sys_path)
{
    const ProfileFile store = parseProfileFile(readTextFile(store_path));
    const SysFile sys = parseSysFile(readTextFile(sys_path));
    const ConfEntry *entry = sys.find(store.conf);
    if (entry == nullptr) {
        std::fprintf(stderr,
                     "error: store is for '%s', which %s does not "
                     "declare\n", store.conf.c_str(), sys_path);
        return 1;
    }
    return report(lintProfile(store, *entry));
}

int
cmdSynth(const char *store_path)
{
    const ProfileFile store = parseProfileFile(readTextFile(store_path));
    std::printf("configuration: %s\n", store.conf.c_str());
    std::printf("%-14s %12s %12s\n", "", "stored", "re-derived");
    Profiler profiler;
    for (const ProfilePoint &pt : store.samples)
        profiler.record(pt.config, pt.perf, pt.config);
    const ProfileSummary fresh = profiler.summarize();
    const ProfileSummary &s = store.summary;
    std::printf("%-14s %12.4f %12.4f\n", "alpha", s.alpha, fresh.alpha);
    std::printf("%-14s %12.4f %12.4f\n", "lambda", s.lambda,
                fresh.lambda);
    std::printf("%-14s %12.4f %12.4f\n", "delta", s.delta, fresh.delta);
    std::printf("%-14s %12.4f %12.4f\n", "pole", s.pole, fresh.pole);
    std::printf("%-14s %12s %12s\n", "monotonic",
                s.monotonic ? "yes" : "NO",
                fresh.monotonic ? "yes" : "NO");
    return 0;
}

int
cmdDemo()
{
    namespace fs = std::filesystem;
    const fs::path dir = "smartconf-demo";
    fs::create_directories(dir);

    SysFile sys;
    sys.entries.push_back({"max.queue.size", "memory_consumption_max",
                           50.0, 0.0, 5000.0});
    writeTextFile((dir / "SmartConf.sys").string(), formatSysFile(sys));

    UserConf user;
    Goal g;
    g.metric = "memory_consumption_max";
    g.value = 1024.0;
    g.hard = true;
    user.goals[g.metric] = g;
    writeTextFile((dir / "app.conf").string(), formatUserConf(user));

    std::printf("wrote %s/SmartConf.sys and %s/app.conf\n",
                dir.string().c_str(), dir.string().c_str());
    return report(lintDeployment(sys, user));
}

/**
 * Store-command argument bundle.  @p root is the cache root the sweep
 * harness was pointed at; the versioned store directory underneath is
 * resolved here so users never need to know the layout version.
 */
struct StoreArgs
{
    std::string root = ".smartconf-cache";
    store::QueryFilter filter;
    bool count_only = false;
    bool ok = true;
};

StoreArgs
parseStoreArgs(int argc, char **argv, int first)
{
    StoreArgs a;
    for (int i = first; i < argc; ++i) {
        const auto want = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", flag);
                a.ok = false;
                return nullptr;
            }
            return argv[++i];
        };
        if (const char *v = want("--dir"))
            a.root = v;
        else if (const char *v = want("--scenario"))
            a.filter.scenario_prefix = v;
        else if (const char *v = want("--policy"))
            a.filter.policy_substr = v;
        else if (const char *v = want("--chaos"))
            a.filter.chaos_substr = v;
        else if (const char *v = want("--seed-min"))
            a.filter.seed_min =
                exec::parseIntFlag("--seed-min", v, 0, UINT64_MAX);
        else if (const char *v = want("--seed-max"))
            a.filter.seed_max =
                exec::parseIntFlag("--seed-max", v, 0, UINT64_MAX);
        else if (std::strcmp(argv[i], "--count") == 0)
            a.count_only = true;
        else if (a.ok) {
            std::fprintf(stderr, "error: unknown store option '%s'\n",
                         argv[i]);
            a.ok = false;
        }
    }
    return a;
}

/** The versioned store dir for @p root; "" when nothing is there. */
std::string
resolveStoreDir(const std::string &root)
{
    namespace fs = std::filesystem;
    const std::string versioned = exec::DiskRunCache::versionDir(root);
    if (fs::exists(versioned))
        return versioned;
    // Accept being pointed straight at a versioned directory.
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(root, ec))
        if (e.path().extension() == ".seg")
            return root;
    std::fprintf(stderr,
                 "error: no segment store under '%s' (looked for %s)\n",
                 root.c_str(), versioned.c_str());
    return "";
}

store::SegmentStore::Options
ctlOptions()
{
    store::SegmentStore::Options o;
    o.auto_compact = false; // one-shot CLI: compaction is explicit
    return o;
}

int
cmdQuery(const StoreArgs &a)
{
    const std::string dir = resolveStoreDir(a.root);
    if (dir.empty())
        return 1;
    store::SegmentStore s(dir, ctlOptions());
    const std::vector<store::QueryRow> rows =
        store::queryStore(s, a.filter);
    if (a.count_only) {
        std::printf("%zu\n", rows.size());
        return 0;
    }
    for (const store::QueryRow &r : rows) {
        if (r.seed_valid)
            std::printf("%-28s seed=%-8" PRIu64 " %6u B  %s | %s\n",
                        r.scenario.c_str(), r.seed, r.payload_len,
                        r.segment.empty() ? "(pending)"
                                          : r.segment.c_str(),
                        r.policy.c_str());
        else
            std::printf("%-28s %6u B  %s\n", r.key.c_str(),
                        r.payload_len,
                        r.segment.empty() ? "(pending)"
                                          : r.segment.c_str());
    }
    std::printf("%zu row(s)\n", rows.size());
    return 0;
}

int
cmdStats(const StoreArgs &a)
{
    const std::string dir = resolveStoreDir(a.root);
    if (dir.empty())
        return 1;
    store::SegmentStore s(dir, ctlOptions());
    std::size_t entries = 0;
    std::uint64_t payload_bytes = 0;
    s.forEachEntry([&](const store::IndexedEntry &e) {
        ++entries;
        payload_bytes += e.payload_len;
    });
    std::printf("store:            %s\n", dir.c_str());
    std::printf("shards:           %zu\n", s.shardCount());
    std::printf("segments:         %zu\n", s.segmentCount());
    std::printf("live entries:     %zu\n", entries);
    std::printf("payload bytes:    %" PRIu64 "\n", payload_bytes);
    return 0;
}

int
cmdCompact(const StoreArgs &a)
{
    const std::string dir = resolveStoreDir(a.root);
    if (dir.empty())
        return 1;
    store::SegmentStore s(dir, ctlOptions());
    const store::CompactionResult r = s.compact();
    std::printf("compacted %zu shard(s): %zu -> %zu segment(s), "
                "%" PRIu64 " -> %" PRIu64 " entr%s, %" PRIu64
                " B written\n",
                r.shards_compacted, r.segments_in, r.segments_out,
                r.entries_in, r.entries_out,
                r.entries_out == 1 ? "y" : "ies", r.bytes_written);
    return 0;
}

int
cmdVerify(const StoreArgs &a)
{
    const std::string dir = resolveStoreDir(a.root);
    if (dir.empty())
        return 1;
    store::SegmentStore s(dir, ctlOptions());
    const store::VerifyResult r = s.verify();
    for (const store::VerifyIssue &i : r.issues)
        std::printf("FINDING %s: %s\n", i.segment.c_str(),
                    i.what.c_str());
    std::printf("%zu segment(s) ok, %zu corrupt; %" PRIu64
                " entr%s ok, %" PRIu64 " corrupt\n",
                r.segments_ok, r.segments_corrupt, r.entries_ok,
                r.entries_ok == 1 ? "y" : "ies", r.entries_corrupt);
    return r.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        if (std::strcmp(argv[1], "lint") == 0 && argc == 4)
            return cmdLint(argv[2], argv[3]);
        if (std::strcmp(argv[1], "check") == 0 && argc == 4)
            return cmdCheck(argv[2], argv[3]);
        if (std::strcmp(argv[1], "synth") == 0 && argc == 3)
            return cmdSynth(argv[2]);
        if (std::strcmp(argv[1], "demo") == 0)
            return cmdDemo();
        if (std::strcmp(argv[1], "query") == 0 ||
            std::strcmp(argv[1], "stats") == 0 ||
            std::strcmp(argv[1], "compact") == 0 ||
            std::strcmp(argv[1], "verify") == 0) {
            const StoreArgs a = parseStoreArgs(argc, argv, 2);
            if (!a.ok)
                return usage();
            if (std::strcmp(argv[1], "query") == 0)
                return cmdQuery(a);
            if (std::strcmp(argv[1], "stats") == 0)
                return cmdStats(a);
            if (std::strcmp(argv[1], "compact") == 0)
                return cmdCompact(a);
            return cmdVerify(a);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
