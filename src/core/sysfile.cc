#include "core/sysfile.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace smartconf {

namespace {

/** Attribute suffixes: `q.min` is an attribute of `q`, never a name. */
constexpr std::string_view kSysSuffixes[] = {".min", ".max"};
constexpr std::string_view kGoalSuffixes[] = {".hard", ".superhard",
                                              ".direction"};

/**
 * The one name rule, shared by every parser and formatter so that each
 * accepts exactly what the other can write back.  A name is a
 * non-empty token with no whitespace or control byte, no `=` or `@`
 * (the line grammar's separators), no comment marker (`#`, `//`,
 * `/` `*`), and no ending in one of @p suffixes.
 */
bool
writableName(std::string_view name,
             std::span<const std::string_view> suffixes = {})
{
    if (name.empty() || name.find("//") != std::string_view::npos ||
        name.find("/*") != std::string_view::npos)
        return false;
    for (const char c : name) {
        const auto u = static_cast<unsigned char>(c);
        if (u <= ' ' || u == 0x7f || c == '=' || c == '@' || c == '#')
            return false;
    }
    for (const std::string_view suffix : suffixes) {
        if (name.ends_with(suffix))
            return false;
    }
    return true;
}

/** SmartConf.sys entry names: `profiling` is the file's own switch. */
bool
sysEntryName(std::string_view name)
{
    return name != "profiling" && writableName(name, kSysSuffixes);
}

/** Strip surrounding whitespace. */
std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r\n\v\f");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r\n\v\f");
    return s.substr(first, last - first + 1);
}

template <typename Error = std::runtime_error>
[[noreturn]] void
parseFail(int line_no, const std::string &what)
{
    throw Error("SmartConf parse error at line " + std::to_string(line_no) +
                ": " + what);
}

/**
 * Remove comments, keeping every newline so line numbers stay stable.
 * Each line is cut at its first comment marker: `#` and `//` end the
 * line, `/` `*` opens a block that runs to the next `*` `/`.  A block
 * left open is a parse error at the line where it opened.
 */
std::string
stripComments(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    int line_no = 1;
    int block_line = 0; ///< line of the open block comment, 0 if none
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            out.push_back('\n');
            ++line_no;
        } else if (block_line != 0) {
            if (text.compare(i, 2, "*/") == 0) {
                block_line = 0;
                ++i;
            }
        } else if (text[i] == '#' || text.compare(i, 2, "//") == 0) {
            while (i + 1 < text.size() && text[i + 1] != '\n')
                ++i;
        } else if (text.compare(i, 2, "/*") == 0) {
            block_line = line_no;
            ++i;
        } else {
            out.push_back(text[i]);
        }
    }
    if (block_line != 0)
        parseFail(block_line, "unterminated '/*' comment");
    return out;
}

/**
 * A number (strtod: a subnormal parses, overflow reads as inf).  A
 * non-finite value is std::invalid_argument, as in SmartConf::setGoal.
 */
double
parseNumber(const std::string &s, int line_no)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        parseFail(line_no, "expected a number, got '" + s + "'");
    if (!std::isfinite(v))
        parseFail<std::invalid_argument>(line_no, "non-finite '" + s + "'");
    return v;
}

/** A count, written and read back as an exact integer. */
std::size_t
parseCount(const std::string &s, int line_no)
{
    std::size_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size())
        parseFail(line_no, "expected a count, got '" + s + "'");
    return v;
}

/** @p name for writing; std::invalid_argument unless @p ok. */
const std::string &
writeName(const std::string &name, bool ok)
{
    if (!ok)
        throw std::invalid_argument("unwritable name '" + name + "'");
    return name;
}

/** @p v for writing; std::invalid_argument unless it is finite. */
double
writeNumber(double v)
{
    if (!std::isfinite(v))
        throw std::invalid_argument("unwritable number");
    return v;
}

/** Split `key = value`; returns false when no '=' is present. */
bool
splitAssign(const std::string &line, std::string &key, std::string &value)
{
    const auto eq = line.find('=');
    if (eq == std::string::npos)
        return false;
    key = trim(line.substr(0, eq));
    value = trim(line.substr(eq + 1));
    return true;
}

/** Iterate cleaned, non-empty lines with their 1-based line numbers. */
template <typename Fn>
void
forEachLine(const std::string &text, Fn &&fn)
{
    std::istringstream in(stripComments(text));
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::string line = trim(raw);
        if (!line.empty())
            fn(line, line_no);
    }
}

} // namespace

const ConfEntry *
SysFile::find(const std::string &name) const
{
    for (const auto &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

SysFile
parseSysFile(const std::string &text)
{
    SysFile out;
    auto entryFor = [&out](const std::string &name,
                           int line_no) -> ConfEntry & {
        if (!sysEntryName(name))
            parseFail(line_no, "invalid configuration name '" + name + "'");
        for (auto &e : out.entries) {
            if (e.name == name)
                return e;
        }
        out.entries.push_back(ConfEntry{name, "", 0.0, 0.0, 1e18});
        return out.entries.back();
    };

    forEachLine(text, [&](const std::string &line, int line_no) {
        const auto at = line.find('@');
        if (at != std::string::npos && line.find('=') == std::string::npos) {
            // `conf @ metric` mapping line.
            const std::string metric = trim(line.substr(at + 1));
            if (!writableName(metric))
                parseFail(line_no, "malformed 'conf @ metric' mapping");
            entryFor(trim(line.substr(0, at)), line_no).metric = metric;
            return;
        }
        std::string key, value;
        if (!splitAssign(line, key, value) || key.empty() || value.empty())
            parseFail(line_no, "expected 'conf @ metric' or 'key = value'");
        if (key == "profiling") {
            out.profilingEnabled = parseNumber(value, line_no) != 0.0;
        } else if (key.ends_with(".min")) {
            entryFor(key.substr(0, key.size() - 4), line_no).confMin =
                parseNumber(value, line_no);
        } else if (key.ends_with(".max")) {
            entryFor(key.substr(0, key.size() - 4), line_no).confMax =
                parseNumber(value, line_no);
        } else {
            entryFor(key, line_no).initial = parseNumber(value, line_no);
        }
    });
    return out;
}

UserConf
parseUserConf(const std::string &text)
{
    UserConf out;
    auto goalFor = [&out](const std::string &metric, int line_no) -> Goal & {
        if (!writableName(metric, kGoalSuffixes))
            parseFail(line_no, "invalid metric name '" + metric + "'");
        auto [it, inserted] = out.goals.try_emplace(metric);
        if (inserted) {
            it->second.metric = metric;
            it->second.direction = GoalDirection::UpperBound;
        }
        return it->second;
    };

    forEachLine(text, [&](const std::string &line, int line_no) {
        std::string key, value;
        if (!splitAssign(line, key, value) || key.empty() || value.empty())
            parseFail(line_no, "expected 'key = value'");
        auto baseOf = [&](std::string_view suffix) -> Goal & {
            return goalFor(key.substr(0, key.size() - suffix.size()),
                           line_no);
        };

        if (key.ends_with(".hard")) {
            baseOf(".hard").hard = parseNumber(value, line_no) != 0.0;
        } else if (key.ends_with(".superhard")) {
            baseOf(".superhard").superHard =
                parseNumber(value, line_no) != 0.0;
        } else if (key.ends_with(".direction")) {
            Goal &g = baseOf(".direction");
            if (value == "upper") {
                g.direction = GoalDirection::UpperBound;
            } else if (value == "lower") {
                g.direction = GoalDirection::LowerBound;
            } else {
                parseFail(line_no, "direction must be 'upper' or 'lower'");
            }
        } else {
            goalFor(key, line_no).value = parseNumber(value, line_no);
        }
    });
    // Super-hard implies hard, in whichever order the lines came.
    for (auto &[metric, goal] : out.goals)
        goal.hard = goal.hard || goal.superHard;
    return out;
}

ProfileFile
parseProfileFile(const std::string &text)
{
    ProfileFile out;
    forEachLine(text, [&](const std::string &line, int line_no) {
        std::string key, value;
        if (!splitAssign(line, key, value) || key.empty() || value.empty())
            parseFail(line_no, "expected 'key = value'");
        if (key == "conf") {
            if (!writableName(value))
                parseFail(line_no,
                          "invalid configuration name '" + value + "'");
            out.conf = value;
        } else if (key == "alpha") {
            out.summary.alpha = parseNumber(value, line_no);
        } else if (key == "base") {
            out.summary.base = parseNumber(value, line_no);
        } else if (key == "lambda") {
            out.summary.lambda = parseNumber(value, line_no);
        } else if (key == "delta") {
            out.summary.delta = parseNumber(value, line_no);
        } else if (key == "pole") {
            out.summary.pole = parseNumber(value, line_no);
        } else if (key == "correlation") {
            out.summary.correlation = parseNumber(value, line_no);
        } else if (key == "settings") {
            out.summary.settings = parseCount(value, line_no);
        } else if (key == "samples") {
            out.summary.samples = parseCount(value, line_no);
        } else if (key == "monotonic") {
            out.summary.monotonic = parseNumber(value, line_no) != 0.0;
        } else if (key == "noise_settings") {
            out.summary.noise_settings = parseCount(value, line_no);
        } else if (key == "insufficient") {
            out.summary.insufficient = parseNumber(value, line_no) != 0.0;
        } else if (key == "sample") {
            std::istringstream pair(value);
            std::string config, perf, rest;
            if (!(pair >> config >> perf) || pair >> rest)
                parseFail(line_no, "sample needs '<config> <perf>'");
            out.samples.push_back({parseNumber(config, line_no),
                                   parseNumber(perf, line_no)});
        } else {
            parseFail(line_no, "unknown profile key '" + key + "'");
        }
    });
    if (out.conf.empty())
        throw std::runtime_error("profile store misses 'conf = <name>'");
    return out;
}

std::string
formatSysFile(const SysFile &file)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "# SmartConf.sys -- generated\n";
    out << "profiling = " << (file.profilingEnabled ? 1 : 0) << "\n";
    for (const auto &e : file.entries) {
        // A repeated name would come back as one merged entry.
        const std::string &name = writeName(
            e.name, sysEntryName(e.name) && file.find(e.name) == &e);
        if (!e.metric.empty()) {
            out << name << " @ "
                << writeName(e.metric, writableName(e.metric)) << "\n";
        }
        out << name << " = " << writeNumber(e.initial) << "\n";
        out << name << ".min = " << writeNumber(e.confMin) << "\n";
        out << name << ".max = " << writeNumber(e.confMax) << "\n";
    }
    return out.str();
}

std::string
formatUserConf(const UserConf &conf)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "# SmartConf user configuration -- generated\n";
    for (const auto &[key, goal] : conf.goals) {
        const std::string &metric =
            writeName(key, writableName(key, kGoalSuffixes));
        out << metric << " = " << writeNumber(goal.value) << "\n";
        out << metric << ".hard = " << (goal.hard ? 1 : 0) << "\n";
        if (goal.superHard)
            out << metric << ".superhard = 1\n";
        out << metric << ".direction = "
            << (goal.direction == GoalDirection::UpperBound ? "upper"
                                                            : "lower")
            << "\n";
    }
    return out.str();
}

std::string
formatProfileFile(const ProfileFile &file)
{
    const std::string &conf = writeName(file.conf, writableName(file.conf));
    const ProfileSummary &sum = file.summary;
    std::ostringstream out;
    out << std::setprecision(17);
    out << "# " << conf << ".SmartConf.sys -- profiling store\n";
    out << "conf = " << conf << "\n";
    out << "alpha = " << writeNumber(sum.alpha) << "\n";
    out << "base = " << writeNumber(sum.base) << "\n";
    out << "lambda = " << writeNumber(sum.lambda) << "\n";
    out << "delta = " << writeNumber(sum.delta) << "\n";
    out << "pole = " << writeNumber(sum.pole) << "\n";
    out << "correlation = " << writeNumber(sum.correlation) << "\n";
    out << "settings = " << sum.settings << "\n";
    out << "samples = " << sum.samples << "\n";
    out << "monotonic = " << (sum.monotonic ? 1 : 0) << "\n";
    out << "noise_settings = " << sum.noise_settings << "\n";
    out << "insufficient = " << (sum.insufficient ? 1 : 0) << "\n";
    for (const auto &pt : file.samples) {
        out << "sample = " << writeNumber(pt.config) << " "
            << writeNumber(pt.perf) << "\n";
    }
    return out.str();
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "' for reading");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open '" + path + "' for writing");
    out << text;
    if (!out)
        throw std::runtime_error("failed writing '" + path + "'");
}

} // namespace smartconf
