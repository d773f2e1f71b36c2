#ifndef SMARTCONF_CORE_SYSFILE_H_
#define SMARTCONF_CORE_SYSFILE_H_

/**
 * @file
 * SmartConf file formats (paper Fig. 2 and Sec. 5.5).
 *
 * Three small text formats make up the SmartConf surface:
 *
 *  1. `SmartConf.sys` — developer-owned, invisible to users.  Maps each
 *     SmartConf configuration to the performance metric it affects
 *     (`max.queue.size @ memory_consumption_max`) and provides a starting
 *     value (`max.queue.size = 50`) used only before the first run.
 *
 *  2. the user configuration file — replaces the raw PerfConf entry with
 *     goal entries: `memory_consumption_max = 1024`,
 *     `memory_consumption_max.hard = 1` (plus optional `.superhard` and
 *     `.direction = upper|lower`).
 *
 *  3. `<ConfName>.SmartConf.sys` — per-configuration profiling store:
 *     the synthesized parameters and the raw samples, flushed by
 *     profiling mode and read back when the controller is initialized.
 *
 * All formats are line-based `key = value`; a line is cut at its first
 * comment marker (hash, double-slash, or a C-style block, which must be
 * closed).  Names are single tokens free of `=`, `@` and comment
 * markers, and numbers are finite.  Parsers throw, with a line number,
 * std::invalid_argument for a non-finite number and std::runtime_error
 * for anything else malformed.  Formatters throw std::invalid_argument
 * rather than write what would not parse back unchanged.
 */

#include <map>
#include <string>
#include <vector>

#include "core/goal.h"
#include "core/model.h"
#include "core/profiler.h"

namespace smartconf {

/** One configuration declared in SmartConf.sys. */
struct ConfEntry
{
    std::string name;   ///< configuration name, e.g. "max.queue.size"
    std::string metric; ///< goal metric it affects
    double initial = 0.0; ///< starting value before the first run
    double confMin = 0.0; ///< smallest value the software accepts
    double confMax = 1e18; ///< largest value the software accepts
};

/** Parsed contents of a SmartConf.sys file. */
struct SysFile
{
    std::vector<ConfEntry> entries;
    bool profilingEnabled = false;

    /** Entry lookup by configuration name; nullptr when absent. */
    const ConfEntry *find(const std::string &name) const;
};

/** Parsed user configuration: goal per metric. */
struct UserConf
{
    std::map<std::string, Goal> goals;
};

/** Per-configuration profiling store (<ConfName>.SmartConf.sys). */
struct ProfileFile
{
    std::string conf;                  ///< configuration name
    ProfileSummary summary;            ///< synthesized parameters
    std::vector<ProfilePoint> samples; ///< raw (config, perf) samples
};

/** Parse SmartConf.sys text. @throws std::runtime_error on bad input. */
SysFile parseSysFile(const std::string &text);

/** Parse user configuration text. @throws std::runtime_error. */
UserConf parseUserConf(const std::string &text);

/** Parse a profiling store. @throws std::runtime_error. */
ProfileFile parseProfileFile(const std::string &text);

/**
 * Serialize back to the textual format: parse returns the input
 * unchanged.  @throws std::invalid_argument for a name or number the
 * parser would reject or read back differently.
 */
std::string formatSysFile(const SysFile &file);
std::string formatUserConf(const UserConf &conf);
std::string formatProfileFile(const ProfileFile &file);

/** Read a whole file. @throws std::runtime_error when unreadable. */
std::string readTextFile(const std::string &path);

/** Write a whole file. @throws std::runtime_error on failure. */
void writeTextFile(const std::string &path, const std::string &text);

} // namespace smartconf

#endif // SMARTCONF_CORE_SYSFILE_H_
