#ifndef SMARTCONF_TESTS_SUPPORT_SCRATCH_DIR_H_
#define SMARTCONF_TESTS_SUPPORT_SCRATCH_DIR_H_

/**
 * @file
 * Per-process scratch directory names for tests (test support).
 */

#include <string>

namespace smartconf::test_support {

/**
 * A path under the system temp directory for the running test's files:
 * `smartconf-<tag>-<pid>-<test name>`.  The pid keeps two processes
 * that run the same test at once (two build trees on one host, a
 * repeat loop beside ctest) from sharing, and wiping, one directory.
 * Nothing is created or removed.
 */
std::string scratchDir(const std::string &tag);

} // namespace smartconf::test_support

#endif // SMARTCONF_TESTS_SUPPORT_SCRATCH_DIR_H_
