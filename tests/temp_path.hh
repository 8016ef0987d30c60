/**
 * @file
 * Scratch file paths unique to the running test case.
 *
 * ctest runs every gtest case as its own process, several at once
 * under `ctest -j`, so a fixed file name under testing::TempDir()
 * is shared by every case of a suite and concurrent cases race on
 * it. A name built from the case's suite, test name and process id
 * belongs to one case in one process.
 */

#ifndef ZOMBIE_TESTS_TEMP_PATH_HH
#define ZOMBIE_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace zombie::test
{

/**
 * TempDir()/zombie.<suite>.<test>.<pid>.<name>; call from inside a
 * test body or fixture.
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + "zombie." + info->test_suite_name() +
           '.' + info->name() + '.' + std::to_string(::getpid()) +
           '.' + name;
}

} // namespace zombie::test

#endif // ZOMBIE_TESTS_TEMP_PATH_HH
