// Kill-and-restart harness: a child process appends archive records, dies
// by SIGKILL at an injected crash point (leaving a torn frame on disk),
// and the parent proves recovery restores exactly the acknowledged prefix
// — zero silent loss, zero crash on the corrupt tail, and AQE answering
// with non-degraded historical aggregates immediately after Recover().
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apollo/apollo_service.h"
#include "coldtier/cold_tier.h"
#include "common/fault.h"
#include "common/rng.h"
#include "pubsub/archiver.h"
#include "score/monitor_hook.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;

// One frame on disk: u32 length + u32 crc + sizeof(Record) payload.
constexpr std::size_t kFrameBytes =
    wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);

struct CrashPoint {
  FaultSite site;          // which archive operation fails
  std::uint64_t appends;   // successful appends before the crash (k)
  std::size_t torn_bytes;  // garbage bytes left by the dying write (j)
};

// Runs in the forked child: append records until the injected fault fires,
// smear a torn frame onto the active segment, then die hard. Never returns.
// Before dying it drops the count of acknowledged appends into a side file
// (the fsync fault site is also hit by rotation barriers, so the failing
// append's index is not simply the scripted hit index). Any unexpected
// state exits with a nonzero code instead of SIGKILL so the parent can
// tell a broken harness from a simulated crash.
[[noreturn]] void ChildWriter(const std::string& base,
                              const std::string& ack_path,
                              const CrashPoint& point) {
  WalConfig config;
  config.segment_bytes = 16 + 4 * kFrameBytes;  // rotate every 4 records
  if (point.site == FaultSite::kArchiveFsync) {
    config.fsync_policy = FsyncPolicy::kEveryN;
    config.fsync_every_n = 1;
  }
  Archiver<Sample> archiver(base, config);
  if (!archiver.OpenStatus().ok()) std::_Exit(2);
  FaultInjector injector;
  FaultSpec spec;
  spec.site = point.site;
  spec.fire_on_hits = {point.appends};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);

  for (std::uint64_t i = 0;; ++i) {
    const Sample sample{Seconds(static_cast<double>(i + 1)),
                        static_cast<double>(i), Provenance::kMeasured};
    Status status = archiver.Append(i, sample.timestamp, sample);
    if (status.ok()) continue;
    if (i > point.appends) std::_Exit(3);  // fault fired past its schedule
    // The append failed (and rolled itself back); emulate the bytes a
    // mid-frame fwrite would have left behind before the process died.
    std::FILE* f = std::fopen(archiver.ActiveSegmentPath().c_str(), "ab");
    if (f == nullptr) std::_Exit(4);
    for (std::size_t b = 0; b < point.torn_bytes; ++b) std::fputc(0xC3, f);
    std::fflush(f);
    std::FILE* ack = std::fopen(ack_path.c_str(), "wb");
    if (ack == nullptr) std::_Exit(5);
    std::fprintf(ack, "%llu", static_cast<unsigned long long>(i));
    std::fflush(ack);
    ::raise(SIGKILL);
    std::_Exit(6);  // unreachable
  }
}

// Parent-side verification: recover through a fresh ApolloService and
// check every acceptance condition for this crash point. `k` is the count
// of acknowledged appends the child reported before dying.
void VerifyRecovery(const std::string& dir, const CrashPoint& point,
                    std::uint64_t k) {
  constexpr std::size_t kWindow = 8;
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  ApolloService apollo(options);
  FactDeployment deployment;
  deployment.topic = "metric";
  deployment.queue_capacity = kWindow;
  MonitorHook hook{"metric", [](TimeNs) { return 0.0; }, 0};
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());

  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok()) << report.error().message();
  // Exactly the acknowledged prefix: every successful append survives,
  // nothing more, and the report accounts for the torn bytes exactly.
  EXPECT_EQ(report->records_recovered, k);
  EXPECT_EQ(report->bytes_truncated, point.torn_bytes);
  EXPECT_EQ(report->corrupt_segments, point.torn_bytes > 0 ? 1u : 0u);
  EXPECT_EQ(report->quarantined_segments, 0u);
  if (k == 0) return;  // empty archive: nothing to query
  EXPECT_EQ(report->topics_recovered, 1u);
  EXPECT_EQ(report->records_replayed, std::min<std::uint64_t>(k, kWindow));

  // AQE answers immediately, merging the restored window with the archive
  // below it — full history, not flagged degraded.
  auto count =
      apollo.Query("SELECT COUNT(*) FROM metric WHERE timestamp >= 0");
  ASSERT_TRUE(count.ok());
  EXPECT_FALSE(count->degraded);
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], static_cast<double>(k));
  auto agg = apollo.Query(
      "SELECT MAX(metric), MIN(metric) FROM metric WHERE timestamp >= 0");
  ASSERT_TRUE(agg.ok());
  EXPECT_FALSE(agg->degraded);
  EXPECT_DOUBLE_EQ(agg->rows[0].values[0], static_cast<double>(k - 1));
  EXPECT_DOUBLE_EQ(agg->rows[0].values[1], 0.0);
}

TEST(KillRestart, NoValidPrefixLossAcrossRandomizedCrashPoints) {
  const std::string dir = testing::TempDir() + "/kill_restart";
  Rng rng(0xDEADFA11u);  // fixed seed: failures replay exactly
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    CrashPoint point;
    point.site = (rng.NextU64() & 1) != 0 ? FaultSite::kArchiveWrite
                                          : FaultSite::kArchiveFsync;
    point.appends = rng.NextU64() % 41;            // 0..40 records
    point.torn_bytes = 1 + rng.NextU64() % (kFrameBytes - 1);  // mid-frame

    const std::string ack_path = dir + "/acked";
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ChildWriter(dir + "/metric.log", ack_path, point);  // never returns
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child exited with code "
        << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
        << " instead of dying by signal (trial " << trial << ")";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // The child's last act before SIGKILL was recording how many appends
    // had been acknowledged.
    unsigned long long acked = 0;
    std::FILE* ack = std::fopen(ack_path.c_str(), "rb");
    ASSERT_NE(ack, nullptr);
    ASSERT_EQ(std::fscanf(ack, "%llu", &acked), 1);
    std::fclose(ack);

    SCOPED_TRACE("trial " + std::to_string(trial) + " site=" +
                 FaultSiteName(point.site) + " acked=" +
                 std::to_string(acked) + " torn=" +
                 std::to_string(point.torn_bytes));
    VerifyRecovery(dir, point, acked);
  }
  fs::remove_all(dir);
}

// --- Compaction crash-point sweep ---
//
// The child appends (and gets acked) a fixed set of records, then runs
// the cold-tier compactor with a crash hook armed at one of its six
// protocol points for a chosen WAL segment — and SIGKILLs itself there.
// The parent restarts through the full service stack (which opens the
// manifest and reconciles) and proves every acked record is queryable
// from exactly one tier: COUNT exact, rows byte-identical, and identical
// again after the interrupted compaction is finished.

constexpr const char* kCompactionCrashPoints[] = {
    coldtier::kCrashMidBlockWrite, coldtier::kCrashPreRename,
    coldtier::kCrashPostRename,    coldtier::kCrashPreManifest,
    coldtier::kCrashPostManifest,  coldtier::kCrashPreWalDelete,
};

struct CompactionCrash {
  const char* point;          // which protocol step dies
  std::uint64_t records;      // acked appends before compaction starts
  std::uint64_t segment_idx;  // which sealed segment's compaction dies
};

[[noreturn]] void CompactionCrashChild(const std::string& base,
                                       const CompactionCrash& crash) {
  WalConfig config;
  config.segment_bytes = 16 + 4 * kFrameBytes;  // rotate every 4 records
  Archiver<Sample> archiver(base, config);
  if (!archiver.OpenStatus().ok()) std::_Exit(2);
  for (std::uint64_t i = 0; i < crash.records; ++i) {
    const Sample sample{Seconds(static_cast<double>(i + 1)),
                        static_cast<double>(i), Provenance::kMeasured};
    if (!archiver.Append(i, sample.timestamp, sample).ok()) std::_Exit(3);
  }
  // Every append above was acked; from here on the compactor may die at
  // any point and still owes the parent all `records` rows.
  const auto sealed = archiver.SealedSegments();
  if (sealed.empty()) ::raise(SIGKILL);  // nothing to compact: die now
  const std::uint64_t crash_seq =
      sealed[std::min<std::size_t>(crash.segment_idx, sealed.size() - 1)]
          .seq;
  coldtier::ColdTierConfig cold_config;
  cold_config.crash_hook = [&crash, crash_seq](const char* point,
                                               std::uint64_t seq) {
    if (seq == crash_seq && std::strcmp(point, crash.point) == 0) {
      ::raise(SIGKILL);
    }
  };
  coldtier::ColdTier cold(base, cold_config);
  if (!cold.Open().ok()) std::_Exit(4);
  (void)cold.CompactOnce(archiver);
  std::_Exit(5);  // the hook must have fired before compaction finished
}

// Restart through the service stack and hold it to the acceptance bar.
void VerifyCompactionRecovery(const std::string& dir,
                              std::uint64_t records) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  options.wal.segment_bytes = 16 + 4 * kFrameBytes;
  options.coldtier_enabled = true;
  ApolloService apollo(options);
  FactDeployment deployment;
  deployment.topic = "metric";
  deployment.queue_capacity = 8;
  MonitorHook hook{"metric", [](TimeNs) { return 0.0; }, 0};
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_EQ(report->quarantined_segments, 0u);
  EXPECT_EQ(report->cold_quarantined_blocks, 0u);

  // Zero loss, zero duplicates: COUNT is exact across window + WAL +
  // blocks no matter where the compactor died.
  auto count =
      apollo.Query("SELECT COUNT(*) FROM metric WHERE Timestamp >= 0");
  ASSERT_TRUE(count.ok());
  EXPECT_FALSE(count->degraded);
  ASSERT_DOUBLE_EQ(count->rows[0].values[0],
                   static_cast<double>(records));

  // Byte-identical rows, and identical again after CompactNow() finishes
  // what the crash interrupted (rows move tiers, answers must not).
  const std::string sql =
      "SELECT Timestamp, metric FROM metric WHERE Timestamp >= 0";
  auto before = apollo.Query(sql);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->rows.size(), records);
  for (std::uint64_t i = 0; i < records; ++i) {
    EXPECT_DOUBLE_EQ(before->rows[i].values[0],
                     static_cast<double>(Seconds(static_cast<double>(i + 1))));
    EXPECT_DOUBLE_EQ(before->rows[i].values[1], static_cast<double>(i));
  }
  auto compacted = apollo.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  auto after = apollo.Query(sql);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), before->rows.size());
  for (std::size_t i = 0; i < after->rows.size(); ++i) {
    EXPECT_EQ(
        std::memcmp(after->rows[i].values.data(),
                    before->rows[i].values.data(),
                    before->rows[i].values.size() * sizeof(double)),
        0)
        << "row " << i << " changed after finishing compaction";
  }
}

TEST(KillRestart, CompactionCrashPointSweepLosesNothing) {
  const std::string dir = testing::TempDir() + "/kill_restart_compact";
  Rng rng(0xC0FFEE42u);  // fixed seed: failures replay exactly
  constexpr int kTrials = 36;
  for (int trial = 0; trial < kTrials; ++trial) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    CompactionCrash crash;
    crash.point = kCompactionCrashPoints[rng.NextBounded(
        std::size(kCompactionCrashPoints))];
    crash.records = 2 + rng.NextBounded(39);  // 2..40 acked records
    crash.segment_idx = rng.NextBounded(10);  // clamped in the child

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      CompactionCrashChild(dir + "/metric.log", crash);  // never returns
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child exited with code "
        << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
        << " instead of dying by signal (trial " << trial << ")";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    SCOPED_TRACE("trial " + std::to_string(trial) + " point=" +
                 crash.point + " records=" +
                 std::to_string(crash.records) + " segment_idx=" +
                 std::to_string(crash.segment_idx));
    VerifyCompactionRecovery(dir, crash.records);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apollo
