// Test helpers for archives: the WAL is the only archive, so a test that
// needs one opens a real WAL in a directory of its own.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "pubsub/archiver.h"

namespace apollo {

// A fresh directory under the test temp dir, unique to this process and
// this object, removed with everything in it on destruction.
struct ScratchDir {
  ScratchDir() {
    static std::atomic<int> next{0};
    dir = testing::TempDir() + "/wal_" + std::to_string(::getpid()) + "_" +
          std::to_string(next.fetch_add(1));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string dir;
};

// An Archiver<Sample> on a WAL in its own ScratchDir, which outlives it.
class TempWal : private ScratchDir, public Archiver<Sample> {
 public:
  explicit TempWal(WalConfig config = {})
      : Archiver<Sample>(dir + "/wal.log", config) {
    EXPECT_TRUE(OpenStatus().ok()) << OpenStatus().ToString();
  }
};

}  // namespace apollo
