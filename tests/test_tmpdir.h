/**
 * @file
 * A scratch directory private to one test process.  gtest_discover_tests
 * registers every TEST as its own ctest entry, so a parallel ctest runs
 * many processes of one binary at once; files or sockets at fixed names
 * under ::testing::TempDir() would be shared between them.  tempPath()
 * places them in a directory made by mkdtemp on first use and removed when
 * the process that made it exits (forked children leave it alone).
 */
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace mg::test {

class ProcessTempDir
{
  public:
    ProcessTempDir() : owner_(::getpid())
    {
        std::string pattern =
            (std::filesystem::path(::testing::TempDir()) / "mg-test-XXXXXX")
                .string();
        if (::mkdtemp(pattern.data()) == nullptr) {
            throw std::runtime_error("mkdtemp failed for " + pattern);
        }
        path_ = pattern;
    }

    ~ProcessTempDir()
    {
        if (::getpid() == owner_) {
            std::error_code ignored;
            std::filesystem::remove_all(path_, ignored);
        }
    }

    ProcessTempDir(const ProcessTempDir&) = delete;
    ProcessTempDir& operator=(const ProcessTempDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    pid_t owner_;
    std::string path_;
};

/** This process's scratch directory, created on first use. */
inline const std::string&
tempDir()
{
    static const ProcessTempDir dir;
    return dir.path();
}

/** `name` inside this process's scratch directory. */
inline std::string
tempPath(const std::string& name)
{
    return tempDir() + "/" + name;
}

} // namespace mg::test
