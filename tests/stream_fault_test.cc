// Archive faults seen from the stream: what an eviction that fails to
// persist costs, and what it must not cost. A row leaves the ring only
// once the archive holds it or has counted it in Archiver::Failures(), so
// ring + archive + failures always equals the rows appended.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"
#include "pubsub/stream.h"
#include "pubsub/telemetry.h"
#include "temp_wal.h"

namespace apollo {
namespace {

TEST(StreamFaultTest, EvictionFlushFailuresCountedOnStream) {
  GlobalTelemetry().Reset();
  SimClock clock;
  Broker broker(clock);
  TempWal archiver;
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.probability = 1.0;
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 1;
  archiver.set_retry_policy(policy);

  // Capacity 4: every publish past the 4th evicts into the (failing)
  // archive.
  ASSERT_TRUE(broker.CreateTopic("t", kLocalNode, 4, &archiver).ok());
  auto handle = *broker.Resolve("t");
  for (TimeNs ts = 1; ts <= 10; ++ts) {
    ASSERT_TRUE(broker
                    .Publish(handle, kLocalNode, ts,
                             Sample{ts, 1.0, Provenance::kMeasured})
                    .ok());
  }
  EXPECT_EQ(archiver.Count(), 0u);
  EXPECT_EQ(archiver.Failures(), 6u)
      << "all six evicted records failed to persist and were counted";
  EXPECT_EQ(handle.stream()->Size() + archiver.Count() + archiver.Failures(),
            10u);
  EXPECT_EQ(GlobalTelemetry().archive_write_failures.Value(), 6u);
}

// One 16-record eviction batch whose kArchiveWrite check fires on hits 3
// and 7, with no retries: exactly those two records are dropped and
// counted, the rest land in order, and the runs between them still share
// one flush each.
TEST(StreamFaultTest, WriteFaultsInOneEvictionBatchDropOnlyTheirRecords) {
  GlobalTelemetry().Reset();
  TempWal archiver;
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.fire_on_hits = {3, 7};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 1;
  archiver.set_retry_policy(policy);

  // A 4-row ring fed 20 entries in one batch evicts ids 0..15 at once.
  TelemetryStream stream(4, &archiver);
  std::vector<TelemetryStream::Entry> entries(20);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TimeNs ts = static_cast<TimeNs>(i + 1);
    entries[i].timestamp = ts;
    entries[i].value =
        Sample{ts, static_cast<double>(i), Provenance::kMeasured};
  }
  stream.AppendBatch(entries.data(), entries.size());

  EXPECT_EQ(injector.Hits(FaultSite::kArchiveWrite), 16u);  // one per record
  EXPECT_EQ(archiver.Failures(), 2u);
  EXPECT_EQ(GlobalTelemetry().archive_write_failures.Value(), 2u);
  EXPECT_EQ(archiver.Flushes(), 3u);  // ids 0-2, 4-6, 8-15
  auto rows = archiver.ReadRange(0, 1000);
  ASSERT_TRUE(rows.ok());
  std::vector<std::uint64_t> ids;
  for (const auto& row : *rows) ids.push_back(row.id);
  std::vector<std::uint64_t> want;
  for (std::uint64_t id = 0; id < 16; ++id) {
    if (id != 3 && id != 7) want.push_back(id);
  }
  EXPECT_EQ(ids, want);
}

// Two appenders share one archived 4-row stream. The first appender's
// eviction write fails once and its retry sleeps 200 ms; the second
// appender appends during that sleep. Once both appends have returned,
// with no flush call, every row is in the ring or the WAL, and the WAL
// holds both evicted rows in id order.
TEST(StreamFaultTest, AppendDuringEvictionRetryLosesNoRow) {
  GlobalTelemetry().Reset();
  TempWal archiver;
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.fire_on_hits = {0};  // the first eviction's first attempt
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = 200 * kNsPerMs;
  policy.max_backoff = 200 * kNsPerMs;
  policy.jitter = 0.0;
  archiver.set_retry_policy(policy);

  TelemetryStream stream(4, &archiver);
  for (TimeNs ts = 1; ts <= 4; ++ts) {
    stream.Append(ts, Sample{ts, static_cast<double>(ts),
                             Provenance::kMeasured});
  }
  ASSERT_EQ(archiver.Count(), 0u);

  // Appender 1 evicts id 0; its write fails and it sleeps before retrying.
  std::thread first([&] {
    stream.Append(5, Sample{5, 5.0, Provenance::kMeasured});
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (injector.Hits(FaultSite::kArchiveWrite) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(injector.Fires(FaultSite::kArchiveWrite), 1u);
  // Appender 2 appends (and evicts id 1) while appender 1 sleeps.
  std::thread second([&] {
    stream.Append(6, Sample{6, 6.0, Provenance::kMeasured});
  });
  first.join();
  second.join();

  EXPECT_EQ(archiver.Failures(), 0u);
  EXPECT_EQ(stream.Size() + archiver.Count() + archiver.Failures(), 6u)
      << "ring " << stream.Size() << " + WAL " << archiver.Count();
  auto rows = archiver.ReadRange(0, 1000);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].id, 0u);
  EXPECT_EQ((*rows)[1].id, 1u);
  EXPECT_EQ(stream.FirstId(), 2u);
}

TEST(StreamFaultTest, DegradedFlagTransitionsAreEdgeTriggered) {
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");
  TelemetryStream* stream = handle.stream();

  EXPECT_FALSE(stream->degraded());
  EXPECT_FALSE(stream->SetDegraded(true));  // was clear
  EXPECT_TRUE(stream->degraded());
  EXPECT_TRUE(stream->SetDegraded(true));  // already set: no transition
  EXPECT_TRUE(stream->SetDegraded(false));
  EXPECT_FALSE(stream->degraded());
}

}  // namespace
}  // namespace apollo
