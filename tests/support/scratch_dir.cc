#include "support/scratch_dir.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

namespace smartconf::test_support {

std::string
scratchDir(const std::string &tag)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return (std::filesystem::temp_directory_path() /
            ("smartconf-" + tag + "-" + std::to_string(::getpid()) +
             "-" + (test ? test->name() : "no-test")))
        .string();
}

} // namespace smartconf::test_support
