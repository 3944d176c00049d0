#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "pubsub/archiver.h"
#include "pubsub/broker.h"
#include "pubsub/stream.h"
#include "temp_wal.h"

namespace apollo {
namespace {

Sample S(TimeNs ts, double v,
         Provenance p = Provenance::kMeasured) {
  return Sample{ts, v, p};
}

// --- Stream ---

TEST(Stream, AppendAssignsMonotonicIds) {
  TelemetryStream stream(16);
  EXPECT_EQ(stream.Append(1, S(1, 1.0)), 0u);
  EXPECT_EQ(stream.Append(2, S(2, 2.0)), 1u);
  EXPECT_EQ(stream.NextId(), 2u);
}

TEST(Stream, CursorReadsOnlyNewEntries) {
  TelemetryStream stream(16);
  stream.Append(1, S(1, 1.0));
  stream.Append(2, S(2, 2.0));
  std::uint64_t cursor = 0;
  auto batch1 = stream.Read(cursor);
  EXPECT_EQ(batch1.size(), 2u);
  EXPECT_EQ(cursor, 2u);
  auto batch2 = stream.Read(cursor);
  EXPECT_TRUE(batch2.empty());
  stream.Append(3, S(3, 3.0));
  auto batch3 = stream.Read(cursor);
  ASSERT_EQ(batch3.size(), 1u);
  EXPECT_EQ(batch3[0].value.value, 3.0);
}

TEST(Stream, ReadRespectsMaxEntries) {
  TelemetryStream stream(64);
  for (int i = 0; i < 10; ++i) stream.Append(i, S(i, i));
  std::uint64_t cursor = 0;
  auto batch = stream.Read(cursor, 3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(cursor, 3u);
}

TEST(Stream, LatestReturnsNewest) {
  TelemetryStream stream(8);
  EXPECT_FALSE(stream.Latest().has_value());
  stream.Append(1, S(1, 10.0));
  stream.Append(2, S(2, 20.0));
  ASSERT_TRUE(stream.Latest().has_value());
  EXPECT_EQ(stream.Latest()->value.value, 20.0);
}

TEST(Stream, EvictionKeepsWindowBounded) {
  TelemetryStream stream(4);
  for (int i = 0; i < 10; ++i) stream.Append(i, S(i, i));
  EXPECT_EQ(stream.Size(), 4u);
  // Oldest surviving entry has id 6.
  std::uint64_t cursor = 0;
  auto batch = stream.Read(cursor);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.front().id, 6u);
}

TEST(Stream, EvictedEntriesGoToArchiver) {
  TempWal archiver;
  TelemetryStream stream(2, &archiver);
  for (int i = 0; i < 5; ++i) stream.Append(Seconds(i), S(Seconds(i), i));
  EXPECT_EQ(archiver.Count(), 3u);
  auto archived = archiver.ReadRange(0, Seconds(10));
  ASSERT_TRUE(archived.ok());
  ASSERT_EQ(archived->size(), 3u);
  EXPECT_EQ((*archived)[0].payload.value, 0.0);
  EXPECT_EQ((*archived)[2].payload.value, 2.0);
}

TEST(Stream, RangeByTimeBinarySearch) {
  TelemetryStream stream(64);
  for (int i = 0; i < 10; ++i) stream.Append(Seconds(i), S(Seconds(i), i));
  auto range = stream.RangeByTime(Seconds(3), Seconds(6));
  ASSERT_EQ(range.size(), 4u);
  EXPECT_EQ(range.front().value.value, 3.0);
  EXPECT_EQ(range.back().value.value, 6.0);
}

TEST(Stream, RangeByTimeEmptyWhenOutside) {
  TelemetryStream stream(64);
  stream.Append(Seconds(5), S(Seconds(5), 5));
  EXPECT_TRUE(stream.RangeByTime(Seconds(6), Seconds(9)).empty());
  EXPECT_TRUE(stream.RangeByTime(Seconds(0), Seconds(4)).empty());
}

// VisitColumns hands a range over in place and ends it where RangeByTime
// does: at the first row past the range's end, even when a later row
// falls inside the range again. An open range comes as one span per side
// of the ring's wrap, a bounded one kSpanRows rows at a time, split at the
// wrap too. A callback that returns false gets no further span.
TEST(Stream, ColumnSpansEndWhereRangeByTimeDoes) {
  constexpr std::size_t kSpanRows = TelemetryStream::kSpanRows;
  constexpr TimeNs kOpen = std::numeric_limits<TimeNs>::max();
  TelemetryStream stream(256);
  // Ids [44, 300) stay in the 256-slot ring, which wraps after id 255;
  // row 285 is stamped late.
  for (TimeNs id = 0; id < 300; ++id) {
    const TimeNs ts = id == 285 ? 1000 : id;
    stream.Append(ts, S(ts, static_cast<double>(3 * id),
                        id % 3 == 0 ? Provenance::kPredicted
                                    : Provenance::kMeasured));
  }
  const auto visit = [&](TimeNs from, TimeNs to, std::size_t stop_after) {
    std::vector<TelemetryStream::Entry> rows;
    std::vector<std::size_t> sizes;
    stream.VisitColumns(
        from, to, [&](std::uint64_t first_id, const ColumnSpan& span) {
          for (std::size_t j = 0; j < span.size; ++j) {
            rows.push_back({first_id + j, span.ts[j], span.At(j)});
          }
          sizes.push_back(span.size);
          return sizes.size() < stop_after;
        });
    return std::make_pair(rows, sizes);
  };
  const auto same = [](const std::vector<TelemetryStream::Entry>& got,
                       const std::vector<TelemetryStream::Entry>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].timestamp, want[i].timestamp);
      EXPECT_EQ(got[i].value.timestamp, want[i].value.timestamp);
      EXPECT_EQ(got[i].value.value, want[i].value.value);
      EXPECT_EQ(got[i].value.provenance, want[i].value.provenance);
    }
  };
  // Ids 50..284: three whole spans, the rest of the lap, and the rows
  // after the wrap up to the late one.
  const auto [bounded, bounded_sizes] = visit(50, 290, SIZE_MAX);
  ASSERT_EQ(bounded.size(), 235u);
  EXPECT_EQ(bounded.back().id, 284u);
  same(bounded, stream.RangeByTime(50, 290));
  EXPECT_EQ(bounded_sizes, (std::vector<std::size_t>{kSpanRows, kSpanRows,
                                                     kSpanRows, 14, 29}));
  const auto [open, open_sizes] = visit(50, kOpen, SIZE_MAX);
  ASSERT_EQ(open.size(), 250u);  // ids 50..299
  same(open, stream.RangeByTime(50, kOpen));
  EXPECT_EQ(open_sizes, (std::vector<std::size_t>{206, 44}));
  const auto [first, first_sizes] = visit(50, 290, 1);
  EXPECT_EQ(first_sizes, std::vector<std::size_t>{kSpanRows});
  EXPECT_EQ(first.size(), kSpanRows);
}

TEST(Stream, LatestAtOrBefore) {
  TelemetryStream stream(64);
  for (int i = 0; i < 5; ++i) {
    stream.Append(Seconds(2 * i), S(Seconds(2 * i), i));
  }
  auto hit = stream.LatestAtOrBefore(Seconds(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value.value, 2.0);  // t=4s entry
  EXPECT_FALSE(stream.LatestAtOrBefore(-1).has_value());
}

TEST(Stream, ConcurrentAppendersAllLand) {
  TelemetryStream stream(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kPer = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stream, t] {
      for (int i = 0; i < kPer; ++i) {
        stream.Append(t * kPer + i, S(t * kPer + i, i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stream.Size(), static_cast<std::size_t>(kThreads * kPer));
  EXPECT_EQ(stream.NextId(), static_cast<std::uint64_t>(kThreads * kPer));
}

// --- Archiver file-backed ---

TEST(Archiver, FileBackedRoundTrip) {
  // Fresh scratch dir: opening an archiver recovers whatever a previous
  // (possibly aborted) run left at the same path.
  const std::string dir = testing::TempDir() + "/apollo_archive_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/archive.bin";
  std::vector<std::string> segments;
  {
    Archiver<Sample> archiver(path);
    EXPECT_TRUE(archiver.OpenStatus().ok());
    ASSERT_EQ(archiver.Count(), 0u);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          archiver.Append(i, Seconds(i), S(Seconds(i), i * 1.5)).ok());
    }
    auto all = archiver.ReadRange(0, Seconds(1000));
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 100u);
    EXPECT_EQ((*all)[42].payload.value, 63.0);

    auto some = archiver.ReadRange(Seconds(10), Seconds(19));
    ASSERT_TRUE(some.ok());
    EXPECT_EQ(some->size(), 10u);
    segments = archiver.SegmentPaths();
  }
  EXPECT_FALSE(segments.empty());
  std::filesystem::remove_all(dir);
}

TEST(Archiver, EmptyRangeReadOk) {
  TempWal archiver;
  auto result = archiver.ReadRange(0, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// The WAL is the only archive: one that cannot open holds nothing, and
// says so on every append and read.
TEST(Archiver, FailedOpenHoldsNothing) {
  ScratchDir scratch;
  Archiver<Sample> archiver(scratch.dir + "/missing/metric.log");
  const Status open = archiver.OpenStatus();
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.code(), ErrorCode::kIoError);

  const Status appended = archiver.Append(0, 1, S(1, 1.0));
  EXPECT_EQ(appended.code(), open.code());
  EXPECT_EQ(appended.message(), open.message());
  const auto rec = Archiver<Sample>::MakeRecord(1, 2, S(2, 2.0));
  EXPECT_EQ(archiver.AppendBatch(&rec, 1).message(), open.message());
  EXPECT_EQ(archiver.Failures(), 2u);
  EXPECT_EQ(archiver.Count(), 0u);
  EXPECT_TRUE(archiver.SegmentPaths().empty());

  auto rows = archiver.ReadRange(0, 100);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().message(), open.message());
  auto tail = archiver.TailRecords(4);
  ASSERT_FALSE(tail.ok());
  EXPECT_EQ(tail.error().message(), open.message());

  // A stream evicting into it counts every row it could not keep.
  TelemetryStream stream(2, &archiver);
  for (int i = 0; i < 5; ++i) stream.Append(i, S(i, i));
  EXPECT_EQ(archiver.Failures(), 5u);
}

// --- Broker ---

TEST(Broker, CreateAndGetTopic) {
  Broker broker(RealClock::Instance());
  auto created = broker.CreateTopic("t1");
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(broker.HasTopic("t1"));
  auto fetched = broker.GetTopic("t1");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*created, *fetched);
}

TEST(Broker, DuplicateTopicRejected) {
  Broker broker(RealClock::Instance());
  ASSERT_TRUE(broker.CreateTopic("dup").ok());
  auto second = broker.CreateTopic("dup");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kAlreadyExists);
}

TEST(Broker, MissingTopicErrors) {
  Broker broker(RealClock::Instance());
  EXPECT_FALSE(broker.GetTopic("nope").ok());
  std::uint64_t cursor = 0;
  EXPECT_FALSE(broker.Fetch("nope", kLocalNode, cursor).ok());
  EXPECT_FALSE(broker.Publish("nope", kLocalNode, 0, S(0, 0)).ok());
  EXPECT_FALSE(broker.RemoveTopic("nope").ok());
}

TEST(Broker, PublishFetchRoundTrip) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("metrics");
  ASSERT_TRUE(broker.Publish("metrics", kLocalNode, 1, S(1, 3.5)).ok());
  std::uint64_t cursor = 0;
  auto entries = broker.Fetch("metrics", kLocalNode, cursor);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].value.value, 3.5);
}

// A row has one time: a sample whose own timestamp differs from the entry
// timestamp is refused before it gets an id.
TEST(Broker, PublishRefusesDifferingTimestamps) {
  Broker broker(RealClock::Instance());
  auto stream = broker.CreateTopic("m");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(broker.Publish("m", kLocalNode, 1, S(1, 1.0)).ok());
  for (const TimeNs sample_ts : {TimeNs{0}, TimeNs{3}}) {
    auto refused = broker.Publish("m", kLocalNode, 2, S(sample_ts, 2.0));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ((*stream)->NextId(), 1u);
  }
  auto id = broker.Publish("m", kLocalNode, 2, S(2, 2.0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
}

TEST(Broker, LatestValue) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("m");
  auto empty = broker.LatestValue("m", kLocalNode);
  EXPECT_FALSE(empty.ok());
  broker.Publish("m", kLocalNode, 1, S(1, 1.0));
  broker.Publish("m", kLocalNode, 2, S(2, 2.0));
  auto latest = broker.LatestValue("m", kLocalNode);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 2.0);
}

TEST(Broker, RemoveTopic) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("gone");
  EXPECT_TRUE(broker.RemoveTopic("gone").ok());
  EXPECT_FALSE(broker.HasTopic("gone"));
}

TEST(Broker, ListTopicsReportsHomeNodes) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("a", 1);
  broker.CreateTopic("b", 2);
  auto topics = broker.ListTopics();
  EXPECT_EQ(topics.size(), 2u);
  EXPECT_EQ(broker.HomeNode("a"), 1);
  EXPECT_EQ(broker.HomeNode("b"), 2);
}

TEST(Broker, NetworkLatencyChargedOnRemoteAccess) {
  SimClock clock;
  auto network = std::make_shared<UniformNetwork>(Millis(10));
  Broker broker(clock, network);
  broker.CreateTopic("remote", /*home_node=*/1);

  // Publishing from node 2 to a topic hosted on node 1 charges one hop to
  // the (virtual) clock.
  ASSERT_TRUE(broker.Publish("remote", /*from_node=*/2, 0, S(0, 1.0)).ok());
  EXPECT_EQ(clock.Now(), Millis(10));
  // Fetching back to node 2 charges another hop.
  std::uint64_t cursor = 0;
  ASSERT_TRUE(broker.Fetch("remote", /*to_node=*/2, cursor).ok());
  EXPECT_EQ(clock.Now(), 2 * Millis(10));
}

TEST(Broker, LocalAccessFree) {
  SimClock clock;
  auto network = std::make_shared<UniformNetwork>(Millis(10));
  Broker broker(clock, network);
  broker.CreateTopic("local", /*home_node=*/3);
  ASSERT_TRUE(broker.Publish("local", /*from_node=*/3, 0, S(0, 1.0)).ok());
  EXPECT_EQ(clock.Now(), 0);  // same node: no latency charged
}

// Registry churn: four threads each create, resolve, publish to and remove
// their own topics while resolving and listing everyone's, and all of them
// publish through one long-lived handle to a shared topic. Every create or
// remove bumps the registry version, so that handle (and each thread's
// handle to a removed topic) is stale on almost every use and re-resolves
// by name under the registry lock. A thread only publishes to its own
// topics: a handle does not keep a removed stream alive.
TEST(BrokerStress, RegistryChurnWithStaleHandles) {
  Broker broker(RealClock::Instance());
  ASSERT_TRUE(broker.CreateTopic("shared").ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 3003;
  constexpr int kOwnTopics = 3;
  std::atomic<int> errors{0};
  auto check = [&errors](bool ok) {
    if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
  };
  auto topic_name = [](int thread, int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%d.%d", thread, k);
    return std::string(buf);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto shared = broker.Resolve("shared");
      check(shared.ok());
      if (!shared.ok()) return;
      TopicHandle shared_handle = *shared;
      std::vector<TopicHandle> stale;
      for (int round = 0; round < kRounds; ++round) {
        const std::string own = topic_name(t, round % kOwnTopics);
        const std::string other =
            topic_name((t + 1) % kThreads, round % kOwnTopics);
        const TimeNs ts = round;
        const Sample sample{ts, static_cast<double>(round),
                            Provenance::kMeasured};
        if (broker.HasTopic(own)) {
          // Publish through the handle from when this topic was created,
          // made stale by every create/remove since, then remove it.
          check(broker.Publish(stale[round % kOwnTopics], kLocalNode, ts,
                               sample)
                    .ok());
          check(broker.RemoveTopic(own).ok());
          // The removed topic's handle re-resolves and reports NotFound.
          auto gone = broker.Publish(stale[round % kOwnTopics], kLocalNode,
                                     ts, sample);
          check(!gone.ok() && gone.error().code() == ErrorCode::kNotFound);
        } else {
          check(broker.CreateTopic(own, /*home_node=*/t, 8).ok());
          auto handle = broker.Resolve(own);
          check(handle.ok());
          if (!handle.ok()) return;
          if (stale.size() < kOwnTopics) {
            stale.push_back(*handle);
          } else {
            stale[round % kOwnTopics] = *handle;
          }
        }
        // Another thread's topic may come and go under these calls.
        (void)broker.Resolve(other);
        (void)broker.HomeNode(other);
        check(broker.ListTopics().size() <= 1 + kThreads * kOwnTopics);
        check(broker.Publish(shared_handle, kLocalNode, ts, sample).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);

  auto shared = broker.GetTopic("shared");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ((*shared)->NextId(),
            static_cast<std::uint64_t>(kThreads * kRounds));
  // Each own name alternates create and remove over its 1001 rounds, so
  // its last round left it present.
  const std::vector<TopicInfo> topics = broker.ListTopics();
  EXPECT_EQ(topics.size(), static_cast<std::size_t>(1 + kThreads * kOwnTopics));
  for (const TopicInfo& info : topics) {
    if (info.name == "shared") continue;
    EXPECT_EQ(info.home_node, info.name[1] - '0') << info.name;
  }
}

TEST(UniformNetworkTest, LatencyRules) {
  UniformNetwork net(Millis(5));
  EXPECT_EQ(net.Latency(1, 1), 0);
  EXPECT_EQ(net.Latency(kLocalNode, 2), 0);
  EXPECT_EQ(net.Latency(1, 2), Millis(5));
}

}  // namespace
}  // namespace apollo
