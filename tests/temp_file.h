/**
 * @file
 * A scratch file for tests that write traces, images or checkpoints:
 * a path in ::testing::TempDir() that no other test process uses, and
 * that is removed, together with the `<path>.tmp` an atomic writer
 * publishes through, when the TempFile goes out of scope.  So no test
 * reads a file an earlier run left behind, and none leaves one.
 */

#ifndef CIDRE_TESTS_TEMP_FILE_H
#define CIDRE_TESTS_TEMP_FILE_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

namespace cidre::test {

class TempFile
{
  public:
    /** A fresh path ending in @p name (keep the extension there). */
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + "cidre_" + std::to_string(::getpid()) +
                "_" + std::to_string(next_++) + "_" + name)
    {
    }

    ~TempFile()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    inline static std::atomic<unsigned> next_{0};

    std::string path_;
};

} // namespace cidre::test

#endif // CIDRE_TESTS_TEMP_FILE_H
