// Durability & recovery tests: append-safe archiver opens, segment
// rotation, torn-tail truncation, quarantine, injected
// write/fsync failures, and full-service restart recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apollo/apollo_service.h"
#include "common/fault.h"
#include "pubsub/archiver.h"
#include "pubsub/stream.h"
#include "pubsub/telemetry.h"
#include "score/monitor_hook.h"
#include "temp_wal.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;

Sample S(TimeNs ts, double v) {
  return Sample{ts, v, Provenance::kMeasured};
}

// Fresh per-test scratch directory (archivers recover whatever segments
// already exist at their path, so tests must never share one).
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Appends `len` garbage bytes to `path` — a torn in-flight write.
void AppendGarbage(const std::string& path, std::size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  for (std::size_t i = 0; i < len; ++i) std::fputc(0x5A, f);
  std::fclose(f);
}

// Reads the whole file at `path` into `out`.
void ReadAll(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
}

// Regression for the truncate-on-open bug: the old "wb+" open wiped the
// file, so a second Archiver lifetime silently destroyed all history.
TEST(ArchiveRecovery, TwoLifetimesPreserveRecords) {
  const std::string dir = FreshDir("wal_two_lifetimes");
  const std::string base = dir + "/metric.log";
  {
    Archiver<Sample> first(base);
    ASSERT_TRUE(first.OpenStatus().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(first.Append(i, Seconds(i), S(Seconds(i), i)).ok());
    }
  }
  Archiver<Sample> second(base);
  ASSERT_TRUE(second.OpenStatus().ok());
  EXPECT_EQ(second.Count(), 10u);
  EXPECT_EQ(second.RecoveryStats().records_recovered, 10u);
  EXPECT_EQ(second.RecoveryStats().bytes_truncated, 0u);
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(second.Append(i, Seconds(i), S(Seconds(i), i)).ok());
  }
  auto all = second.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 15u);
  EXPECT_EQ((*all)[0].payload.value, 0.0);
  EXPECT_EQ((*all)[14].payload.value, 14.0);
}

// sizeof(Archiver<Sample>::Record) = 40; one frame = 48 bytes on disk, the
// segment header 16, so segment_bytes = 120 fits exactly two records.
constexpr std::size_t kTwoRecordSegment = 120;

TEST(ArchiveRecovery, RotationKeepsEverySegment) {
  const std::string dir = FreshDir("wal_rotation");
  WalConfig config;
  config.segment_bytes = kTwoRecordSegment;
  Archiver<Sample> archiver(dir + "/metric.log", config);
  ASSERT_TRUE(archiver.OpenStatus().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(archiver.Append(i, Seconds(i), S(Seconds(i), i)).ok());
  }
  // 10 records at 2/segment = 5 segments, every record still readable.
  EXPECT_EQ(archiver.SegmentPaths().size(), 5u);
  EXPECT_EQ(archiver.Count(), 10u);
  auto all = archiver.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 10u);
  EXPECT_EQ(all->front().payload.value, 0.0);
  EXPECT_EQ(all->back().payload.value, 9.0);
  std::size_t wal_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".wal") ++wal_files;
  }
  EXPECT_EQ(wal_files, 5u);
}

TEST(ArchiveRecovery, TornTailTruncatedOnOpen) {
  const std::string dir = FreshDir("wal_torn_tail");
  const std::string base = dir + "/metric.log";
  std::string active;
  {
    Archiver<Sample> first(base);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(first.Append(i, Seconds(i), S(Seconds(i), i)).ok());
    }
    active = first.ActiveSegmentPath();
  }
  AppendGarbage(active, 7);  // a write SIGKILL'd mid-frame

  Archiver<Sample> second(base);
  ASSERT_TRUE(second.OpenStatus().ok());
  const ArchiveRecoveryStats stats = second.RecoveryStats();
  EXPECT_EQ(stats.records_recovered, 5u);
  EXPECT_EQ(stats.bytes_truncated, 7u);
  EXPECT_EQ(stats.corrupt_segments, 1u);
  EXPECT_EQ(stats.quarantined_segments, 0u);
  // The archive keeps working where it left off.
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(second.Append(i, Seconds(i), S(Seconds(i), i)).ok());
  }
  auto all = second.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u);
}

TEST(ArchiveRecovery, BadHeaderSegmentQuarantined) {
  const std::string dir = FreshDir("wal_quarantine");
  const std::string base = dir + "/metric.log";
  WalConfig config;
  config.segment_bytes = kTwoRecordSegment;
  std::vector<std::string> segments;
  {
    Archiver<Sample> first(base, config);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(first.Append(i, Seconds(i), S(Seconds(i), i)).ok());
    }
    segments = first.SegmentPaths();
  }
  ASSERT_EQ(segments.size(), 3u);
  // Smash the middle segment's magic: the whole file is unreadable.
  {
    std::FILE* f = std::fopen(segments[1].c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fputc(0x00, f);
    std::fclose(f);
  }

  Archiver<Sample> second(base, config);
  const ArchiveRecoveryStats stats = second.RecoveryStats();
  EXPECT_EQ(stats.segments_scanned, 3u);
  EXPECT_EQ(stats.quarantined_segments, 1u);
  EXPECT_EQ(stats.corrupt_segments, 1u);
  EXPECT_EQ(stats.records_recovered, 4u);
  EXPECT_EQ(second.Count(), 4u);
  // Quarantined, not deleted: moved aside under .corrupt for forensics.
  EXPECT_FALSE(fs::exists(segments[1]));
  EXPECT_TRUE(fs::exists(segments[1] + ".corrupt"));
}

TEST(ArchiveRecovery, InjectedWriteFailureSurfacesStatusAndCounter) {
  GlobalTelemetry().Reset();
  const std::string dir = FreshDir("wal_write_fault");
  Archiver<Sample> archiver(dir + "/metric.log");
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.fire_on_hits = {0};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);

  Status status = archiver.Append(0, Seconds(1), S(Seconds(1), 1.0));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(archiver.Count(), 0u);
  EXPECT_GE(GlobalTelemetry().archive_write_errors.Value(), 1u);

  // The failure left no partial frame: the next append lands cleanly.
  ASSERT_TRUE(archiver.Append(0, Seconds(1), S(Seconds(1), 1.0)).ok());
  EXPECT_EQ(archiver.Count(), 1u);
}

TEST(ArchiveRecovery, RetryAppendsExactlyOnceAfterInjectedFailure) {
  GlobalTelemetry().Reset();
  const std::string dir = FreshDir("wal_write_retry");
  Archiver<Sample> archiver(dir + "/metric.log");
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.fire_on_hits = {0};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);

  ASSERT_TRUE(archiver.AppendWithRetry(0, Seconds(1), S(Seconds(1), 7.0)).ok());
  EXPECT_EQ(archiver.Count(), 1u);
  EXPECT_EQ(archiver.Failures(), 0u);
  EXPECT_GE(GlobalTelemetry().archive_retries.Value(), 1u);
  auto all = archiver.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);  // exactly once, no duplicate from the retry
}

TEST(ArchiveRecovery, InjectedFsyncFailureRollsBackRecord) {
  GlobalTelemetry().Reset();
  const std::string dir = FreshDir("wal_fsync_fault");
  WalConfig config;
  config.fsync_policy = FsyncPolicy::kEveryN;
  config.fsync_every_n = 1;
  Archiver<Sample> archiver(dir + "/metric.log", config);
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveFsync;
  spec.fire_on_hits = {0};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);

  Status status = archiver.Append(0, Seconds(1), S(Seconds(1), 1.0));
  EXPECT_FALSE(status.ok());
  // The record was written but could not be made durable: it must be
  // rolled back so a retry cannot double-append it.
  EXPECT_EQ(archiver.Count(), 0u);
  EXPECT_GE(GlobalTelemetry().archive_fsync_failures.Value(), 1u);

  ASSERT_TRUE(archiver.AppendWithRetry(0, Seconds(1), S(Seconds(1), 1.0)).ok());
  EXPECT_EQ(archiver.Count(), 1u);
  EXPECT_GE(archiver.Fsyncs(), 1u);
}

// An fsync that fails once in the middle of an eviction batch rolls back
// its chunk; the default retry policy appends that chunk again exactly
// once, so every record lands once and in id order.
TEST(ArchiveRecovery, InjectedFsyncFailureMidBatchRetriesChunkOnce) {
  GlobalTelemetry().Reset();
  const std::string dir = FreshDir("wal_fsync_fault_batch");
  WalConfig config;
  config.fsync_policy = FsyncPolicy::kEveryN;
  config.fsync_every_n = 4;
  Archiver<Sample> archiver(dir + "/metric.log", config);
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveFsync;
  spec.fire_on_hits = {1};  // the second chunk's fsync
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);

  // A 4-row ring fed 20 entries in one batch evicts ids 0..15 at once.
  TelemetryStream stream(4, &archiver);
  std::vector<TelemetryStream::Entry> entries(20);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].timestamp = Seconds(static_cast<double>(i + 1));
    entries[i].value = S(entries[i].timestamp, static_cast<double>(i));
  }
  stream.AppendBatch(entries.data(), entries.size());

  EXPECT_EQ(archiver.Failures(), 0u);
  EXPECT_EQ(GlobalTelemetry().archive_fsync_failures.Value(), 1u);
  EXPECT_GE(GlobalTelemetry().archive_retries.Value(), 1u);
  EXPECT_EQ(archiver.Fsyncs(), 4u);  // one per 4-record chunk
  auto rows = archiver.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 16u);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].id, i);
  }
}

// One frame on disk: u32 length + u32 crc + sizeof(Record) payload.
constexpr std::size_t kFrameBytes =
    wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);

// A sample whose padding bytes are zero, so its record's bytes do not
// depend on how the padding was copied on the way to the archive.
Sample ZeroPadded(TimeNs ts, double v) {
  Sample sample;
  std::memset(static_cast<void*>(&sample), 0, sizeof(sample));
  sample.timestamp = ts;
  sample.value = v;
  return sample;
}

// Appends the same records once through single-record Append and once as
// one eviction flush, with segments that rotate mid-batch. Returns the
// batched archive's chunk flushes.
std::uint64_t ExpectBatchedFlushWritesSameBytes(const std::string& name,
                                                WalConfig config) {
  constexpr std::uint64_t kRecords = 37;
  config.segment_bytes = wal::kHeaderSize + 10 * kFrameBytes;  // 10/segment
  Archiver<Sample> per_record(FreshDir(name + "_per_record") + "/metric.log",
                              config);
  Archiver<Sample> batched(FreshDir(name + "_batched") + "/metric.log", config);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const TimeNs ts = Seconds(static_cast<double>(i + 1));
    const Sample sample = ZeroPadded(ts, static_cast<double>(i));
    EXPECT_TRUE(per_record.Append(i, ts, sample).ok());
  }
  TelemetryStream stream(4, &batched);
  std::vector<TelemetryStream::Entry> entries(kRecords + 4);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].timestamp = Seconds(static_cast<double>(i + 1));
    entries[i].value = ZeroPadded(entries[i].timestamp, static_cast<double>(i));
  }
  stream.AppendBatch(entries.data(), entries.size());

  EXPECT_EQ(batched.Count(), kRecords);
  EXPECT_EQ(per_record.Flushes(), kRecords);
  EXPECT_EQ(batched.Fsyncs(), per_record.Fsyncs());
  const std::vector<std::string> want = per_record.SegmentPaths();
  const std::vector<std::string> got = batched.SegmentPaths();
  EXPECT_EQ(want.size(), 4u);  // three rotations, at records 10, 20, 30
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    EXPECT_EQ(fs::path(got[i]).filename(), fs::path(want[i]).filename());
    std::vector<std::uint8_t> want_bytes;
    std::vector<std::uint8_t> got_bytes;
    ReadAll(want[i], want_bytes);
    ReadAll(got[i], got_bytes);
    EXPECT_EQ(got_bytes, want_bytes) << "segment " << i << " differs";
  }
  return batched.Flushes();
}

TEST(ArchiveChunks, BatchedFlushWritesSameBytesUnderNever) {
  // One chunk per segment: 10 + 10 + 10 + 7 records.
  EXPECT_EQ(ExpectBatchedFlushWritesSameBytes("wal_same_bytes_never", {}), 4u);
}

TEST(ArchiveChunks, BatchedFlushWritesSameBytesUnderEveryN) {
  WalConfig config;
  config.fsync_policy = FsyncPolicy::kEveryN;
  config.fsync_every_n = 5;
  // Chunks end at every fsync point: two of 5 per full segment, then 5 + 2.
  const std::uint64_t flushes =
      ExpectBatchedFlushWritesSameBytes("wal_same_bytes_every_n", config);
  EXPECT_EQ(flushes, 8u);
}

// Host-independent cost guard: chunk writes per archived record, each one
// pwrite(2) of the chunk's frames. Ingest-shaped runs evict about 512 rows
// per batch; single-sample publishes evict one row at a time and gain
// nothing from batching.
TEST(ArchiveChunks, EvictionFlushPaysOneFlushPerChunk) {
  constexpr std::size_t kRing = 128;
  constexpr std::size_t kRun = 512;
  Archiver<Sample> ingest(FreshDir("wal_chunk_ingest") + "/metric.log");
  TelemetryStream ingest_stream(kRing, &ingest);
  std::vector<TelemetryStream::Entry> run(kRing + kRun);
  TimeNs ts = 0;
  for (auto& entry : run) {
    entry.timestamp = ++ts;
    entry.value = S(ts, 1.0);
  }
  // The first batch fills the ring and evicts 512 rows into a fresh
  // segment: exactly one flush.
  ingest_stream.AppendBatch(run.data(), run.size());
  EXPECT_EQ(ingest.Count(), kRun);
  EXPECT_EQ(ingest.Flushes(), 1u);
  for (int batch = 0; batch < 15; ++batch) {
    for (std::size_t i = 0; i < kRun; ++i) {
      run[i].timestamp = ++ts;
      run[i].value = S(ts, 1.0);
    }
    ingest_stream.AppendBatch(run.data(), kRun);
  }
  const double ingest_per_flush = static_cast<double>(ingest.Count()) /
                                  static_cast<double>(ingest.Flushes());
  EXPECT_EQ(ingest_per_flush, static_cast<double>(kRun));

  Archiver<Sample> monitor(FreshDir("wal_chunk_monitor") + "/metric.log");
  TelemetryStream monitor_stream(kRing, &monitor);
  for (int i = 0; i < 2 * static_cast<int>(kRing); ++i) {
    monitor_stream.Append(Seconds(i), S(Seconds(i), 1.0));
  }
  const double monitor_per_flush = static_cast<double>(monitor.Count()) /
                                   static_cast<double>(monitor.Flushes());
  EXPECT_EQ(monitor.Count(), kRing);
  EXPECT_EQ(monitor_per_flush, 1.0);
  std::printf("records per flush: ingest-shaped %.1f, monitor-shaped %.1f\n",
              ingest_per_flush, monitor_per_flush);
}

TEST(ArchiveRecovery, EveryNPolicySyncsOnSchedule) {
  const std::string dir = FreshDir("wal_fsync_every_n");
  WalConfig config;
  config.fsync_policy = FsyncPolicy::kEveryN;
  config.fsync_every_n = 4;
  Archiver<Sample> archiver(dir + "/metric.log", config);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(archiver.Append(i, Seconds(i), S(Seconds(i), i)).ok());
  }
  EXPECT_EQ(archiver.Fsyncs(), 2u);  // after records 4 and 8
}

TEST(StreamRestore, RestoredEntriesAreNotReArchived) {
  TempWal archiver;
  TelemetryStream stream(4, &archiver);
  std::vector<TelemetryStream::Entry> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({static_cast<std::uint64_t>(i), Seconds(i),
                       S(Seconds(i), i)});
  }
  ASSERT_TRUE(stream.RestoreWindowAt(entries).ok());
  EXPECT_EQ(stream.Size(), 4u);
  EXPECT_EQ(archiver.Count(), 0u);  // restore is not an append

  // Six more appends evict the 4 restored entries (gated: already on
  // disk) then 2 live ones (archived normally).
  for (int i = 4; i < 10; ++i) {
    stream.Append(Seconds(i), S(Seconds(i), i));
  }
  EXPECT_EQ(archiver.Count(), 2u);
  auto archived = archiver.ReadRange(0, Seconds(1000));
  ASSERT_TRUE(archived.ok());
  ASSERT_EQ(archived->size(), 2u);
  EXPECT_EQ(archived->front().payload.value, 4.0);
  EXPECT_EQ(archived->back().payload.value, 5.0);
}

TEST(StreamRestore, RebuildsAggregateIndex) {
  TelemetryStream stream(8);
  std::vector<TelemetryStream::Entry> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back({static_cast<std::uint64_t>(i), Seconds(i),
                       S(Seconds(i), 10.0 + i)});
  }
  ASSERT_TRUE(stream.RestoreWindowAt(entries).ok());
  auto agg = stream.Aggregates();
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 5u);
  EXPECT_DOUBLE_EQ(agg->min_value, 10.0);
  EXPECT_DOUBLE_EQ(agg->max_value, 14.0);
  EXPECT_DOUBLE_EQ(agg->sum_value, 60.0);
  EXPECT_EQ(agg->latest.value.value, 14.0);
}

TEST(StreamRestore, RefusesNonEmptyStream) {
  TelemetryStream stream(8);
  stream.Append(Seconds(1), S(Seconds(1), 1.0));
  std::vector<TelemetryStream::Entry> entries{
      {0, Seconds(0), S(Seconds(0), 0.0)}};
  Status status = stream.RestoreWindowAt(entries);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(stream.Size(), 1u);  // untouched
}

TEST(StreamRestore, RefusesOversizeBatch) {
  TelemetryStream stream(2);
  std::vector<TelemetryStream::Entry> entries(3);
  EXPECT_EQ(stream.RestoreWindowAt(entries).code(),
            ErrorCode::kInvalidArgument);
}

// --- full-service restart recovery ---

FactDeployment CountingDeployment(const std::string& topic) {
  FactDeployment deployment;
  deployment.topic = topic;
  deployment.queue_capacity = 4;
  deployment.publish_only_on_change = false;
  return deployment;
}

MonitorHook CountingHook(const std::string& name, TimeNs* tick) {
  return MonitorHook{
      name, [tick](TimeNs) { return static_cast<double>((*tick)++); }, 0};
}

TEST(ServiceRecovery, RebuildsWindowsAndAnswersQueries) {
  const std::string dir = FreshDir("service_recovery");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;

  // First lifetime: 31 samples published (t = 0..30s), window capacity 4,
  // so 27 evicted records reach the archive before "the process dies".
  {
    ApolloService apollo(options);
    TimeNs tick = 0;
    ASSERT_TRUE(apollo
                    .DeployFact(CountingHook("metric", &tick),
                                CountingDeployment("metric"))
                    .ok());
    apollo.RunFor(Seconds(30));
    auto rs = apollo.Query("SELECT COUNT(*) FROM metric WHERE timestamp >= 0");
    ASSERT_TRUE(rs.ok());
    EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 31.0);
  }

  // Second lifetime: deploy the same fact, recover before running.
  ApolloService apollo(options);
  TimeNs tick = 0;
  ASSERT_TRUE(apollo
                  .DeployFact(CountingHook("metric", &tick),
                              CountingDeployment("metric"))
                  .ok());
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->topics_recovered, 1u);
  EXPECT_EQ(report->topics_skipped, 0u);
  EXPECT_EQ(report->records_recovered, 27u);
  EXPECT_EQ(report->records_replayed, 4u);  // window capacity
  EXPECT_EQ(report->bytes_truncated, 0u);
  EXPECT_EQ(report->corrupt_segments, 0u);

  // Queries answer immediately, merging the restored window with the
  // archive below it: all 27 persisted records are reachable.
  auto count = apollo.Query("SELECT COUNT(*) FROM metric WHERE timestamp >= 0");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], 27.0);
  EXPECT_FALSE(count->degraded);

  auto agg = apollo.Query(
      "SELECT MAX(metric), MIN(metric), AVG(metric) FROM metric "
      "WHERE timestamp >= 0");
  ASSERT_TRUE(agg.ok());
  EXPECT_FALSE(agg->degraded);
  EXPECT_DOUBLE_EQ(agg->rows[0].values[0], 26.0);  // newest archived value
  EXPECT_DOUBLE_EQ(agg->rows[0].values[1], 0.0);
  EXPECT_DOUBLE_EQ(agg->rows[0].values[2], 13.0);  // mean of 0..26

  // Last-known-good value is restored too.
  auto latest = apollo.LatestValue("metric");
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest, 26.0);

  // A second pass must refuse to clobber the now-live stream.
  auto again = apollo.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->topics_recovered, 0u);
  EXPECT_EQ(again->topics_skipped, 1u);
}

// Restored rows keep the ids they were archived under. Twelve rows at one
// timestamp through a ring of 4 leave ids 0-7 in the WAL; Recover puts ids
// 4-7 back in the ring, so the tier merge's id tiebreak still reaches WAL
// ids 0-3, the next publish takes id 8, and the WAL never sees an id twice.
TEST(ServiceRecovery, RestoredWindowKeepsArchivedIds) {
  const std::string dir = FreshDir("service_recovery_ids");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  const TimeNs ts = Seconds(5);

  {
    ApolloService apollo(options);
    TimeNs tick = 0;
    ASSERT_TRUE(apollo
                    .DeployFact(CountingHook("metric", &tick),
                                CountingDeployment("metric"))
                    .ok());
    auto stream = apollo.broker().GetTopic("metric");
    ASSERT_TRUE(stream.ok());
    for (int i = 0; i < 12; ++i) (*stream)->Append(ts, S(ts, i));
  }

  ApolloService apollo(options);
  TimeNs tick = 0;
  ASSERT_TRUE(apollo
                  .DeployFact(CountingHook("metric", &tick),
                              CountingDeployment("metric"))
                  .ok());
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records_recovered, 8u);
  EXPECT_EQ(report->records_replayed, 4u);

  auto stream = apollo.broker().GetTopic("metric");
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->FirstId(), 4u);
  EXPECT_EQ((*stream)->NextId(), 8u);
  auto count = apollo.Query("SELECT COUNT(*), SUM(metric) FROM metric");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], 8.0);
  EXPECT_DOUBLE_EQ(count->rows[0].values[1], 28.0);  // 0 + 1 + ... + 7
  EXPECT_FALSE(count->degraded);

  // Eight more rows evict the restored ids 4-7 (already on disk) and then
  // ids 8-11, which the WAL takes after the previous run's 0-7.
  for (int i = 12; i < 20; ++i) (*stream)->Append(ts, S(ts, i));
  auto wal = (*stream)->archiver()->ReadRange(0, Seconds(1000));
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal->size(), 12u);
  for (std::size_t i = 0; i < wal->size(); ++i) {
    EXPECT_EQ((*wal)[i].id, i) << "WAL row " << i;
  }
}

TEST(ServiceRecovery, TornArchiveTailCountedInReport) {
  const std::string dir = FreshDir("service_recovery_torn");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;

  {
    ApolloService apollo(options);
    TimeNs tick = 0;
    ASSERT_TRUE(apollo
                    .DeployFact(CountingHook("metric", &tick),
                                CountingDeployment("metric"))
                    .ok());
    apollo.RunFor(Seconds(30));
  }
  // Tear the active segment's tail, as a mid-write SIGKILL would.
  AppendGarbage(dir + "/metric.log.000001.wal", 11);

  ApolloService apollo(options);
  TimeNs tick = 0;
  ASSERT_TRUE(apollo
                  .DeployFact(CountingHook("metric", &tick),
                              CountingDeployment("metric"))
                  .ok());
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records_recovered, 27u);  // every whole record survives
  EXPECT_EQ(report->bytes_truncated, 11u);
  EXPECT_EQ(report->corrupt_segments, 1u);
  auto count = apollo.Query("SELECT COUNT(*) FROM metric WHERE timestamp >= 0");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], 27.0);
}

// An insight deployed through the service gets the same file-backed
// archiver as a fact: every row it published stays queryable after the
// ring evicts it, and a restart recovers its window beside the fact's.
TEST(ServiceRecovery, InsightArchivedAndRecovered) {
  const std::string dir = FreshDir("service_recovery_insight");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  auto deploy = [](ApolloService& apollo, TimeNs* tick) {
    FactDeployment fact = CountingDeployment("f");
    fact.queue_capacity = 8;
    ASSERT_TRUE(apollo.DeployFact(CountingHook("f", tick), fact).ok());
    InsightVertexConfig insight;
    insight.topic = "i";
    insight.upstream = {"f"};
    insight.queue_capacity = 8;
    ASSERT_TRUE(apollo.DeployInsight(insight, SumInsight()).ok());
  };

  {
    ApolloService apollo(options);
    TimeNs tick = 0;
    deploy(apollo, &tick);
    ASSERT_TRUE(apollo.RunFor(Seconds(60)).ok());
    auto insight = apollo.graph().FindInsight("i");
    ASSERT_TRUE(insight.ok());
    const std::uint64_t published = (*insight)->stats().published;
    ASSERT_GT(published, 8u);  // more rows than the ring holds
    auto count = apollo.Query("SELECT COUNT(*) FROM i WHERE Timestamp >= 0");
    ASSERT_TRUE(count.ok());
    EXPECT_DOUBLE_EQ(count->rows[0].values[0],
                     static_cast<double>(published));
    EXPECT_FALSE(count->degraded);
  }

  ApolloService apollo(options);
  TimeNs tick = 0;
  deploy(apollo, &tick);
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->topics_recovered, 2u);
}

// A WAL that cannot open fails the deployment instead of leaving the topic
// on a silently in-memory archive: once for a missing directory, once for
// a regular file where the directory should be.
TEST(ServiceRecovery, DeployFailsWhenArchiveCannotOpen) {
  const std::string dir = FreshDir("service_unopenable_archive");
  const std::string regular_file = dir + "/not_a_directory";
  std::FILE* f = std::fopen(regular_file.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  for (const std::string& archive_dir : {dir + "/missing", regular_file}) {
    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kSimulated;
    options.archive_dir = archive_dir;
    ApolloService apollo(options);
    TimeNs tick = 0;
    auto deployed = apollo.DeployFact(CountingHook("metric", &tick),
                                      CountingDeployment("metric"));
    ASSERT_FALSE(deployed.ok()) << archive_dir;
    EXPECT_EQ(deployed.error().code(), ErrorCode::kIoError);
    EXPECT_NE(deployed.error().message().find(archive_dir + "/metric.log."),
              std::string::npos)
        << deployed.error().message();

    // Nothing was deployed: no topic to query, nothing to recover.
    ASSERT_TRUE(apollo.RunFor(Seconds(20)).ok());
    auto count = apollo.Query("SELECT COUNT(*) FROM metric");
    ASSERT_FALSE(count.ok());
    EXPECT_EQ(count.error().code(), ErrorCode::kNotFound);
    auto report = apollo.Recover();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->topics_recovered, 0u);
  }
}

TEST(ServiceRecovery, RequiresConfiguredDirectory) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);
  auto report = apollo.Recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace apollo
