#pragma once

/// \file temp_dir.h
/// A private scratch directory for one test. ctest runs every TEST as its own
/// process, often several at once, so tests must never share a fixed path:
/// TempDir names a fresh directory after the running suite, test and pid,
/// and removes it with everything in it at scope end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "common/macros.h"

namespace mb2 {

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> sequence{0};
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr ? std::string("no_test")
                                       : std::string(info->test_suite_name()) +
                                             "." + info->name();
    for (char &c : name) {
      if (c == '/') c = '_';  // parameterized suites and tests contain '/'
    }
    path_ = std::filesystem::temp_directory_path() /
            ("mb2_" + name + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(sequence++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  MB2_DISALLOW_COPY_AND_MOVE(TempDir);

  /// The directory itself.
  std::string path() const { return path_.string(); }
  /// A path named `name` inside the directory (not created).
  std::string File(const std::string &name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace mb2
