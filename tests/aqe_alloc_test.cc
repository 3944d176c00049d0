// Allocation gates for the query and publish paths. A counting global
// operator new (in this binary only, so the other suites keep the normal
// allocator) prices one Executor::Execute of each query shape the `query`
// workload issues, and of a `monitor` dashboard aggregate over ring, WAL
// and cold blocks, after two warm-up runs have cached its plan. A query
// may allocate one block per returned row (its values) plus a fixed
// allowance, however many rows, WAL segments or cold blocks it reads. It
// also prices one warmed Broker::PublishBatch in `ingest`'s shape, which
// may allocate nothing and write its WAL chunk once, and the encode of
// one `ingest` kPublishBatch payload, which allocates once. Allocation
// counts repeat exactly on every host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "coldtier/cold_tier.h"
#include "net/messages.h"
#include "pubsub/broker.h"
#include "temp_wal.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apollo::aqe {
namespace {

// Allocations a query may make beyond one per returned row: the result's
// column and row vectors, the top-k candidates, and their regrowth.
constexpr std::uint64_t kFixedAllowance = 16;

struct Priced {
  std::uint64_t allocs = 0;
  std::size_t rows = 0;
};

Priced Price(Executor& executor, const std::string& query) {
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(executor.Execute(query).ok()) << query;
  }
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  auto rs = executor.Execute(query);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(rs.ok()) << query;
  Priced priced;
  priced.allocs = g_allocs.load(std::memory_order_relaxed);
  priced.rows = rs.ok() ? rs->NumRows() : 0;
  return priced;
}

// An 8192-row ring of values below 100000, as in the `query` workload;
// about 5% of rows exceed 95000.
class AqeAlloc : public testing::Test {
 protected:
  static constexpr std::size_t kRing = 8192;

  AqeAlloc() : broker_(RealClock::Instance()) {
    EXPECT_TRUE(broker_.CreateTopic("ring", kLocalNode, kRing).ok());
    std::mt19937_64 rng(7);
    for (std::size_t i = 0; i < kRing; ++i) {
      const TimeNs ts = 1'000'000 + static_cast<TimeNs>(i) * 1000;
      const double value = static_cast<double>(rng() % 100000);
      if (value > 95000) ++above_95000_;
      EXPECT_TRUE(broker_
                      .Publish("ring", kLocalNode, ts,
                               Sample{ts, value, Provenance::kMeasured})
                      .ok());
    }
  }

  Broker broker_;
  Executor executor_{broker_};
  std::size_t above_95000_ = 0;
};

TEST_F(AqeAlloc, WindowScanTopKBuildsOnlyReturnedRows) {
  ASSERT_GT(above_95000_, 300u);
  ASSERT_LT(above_95000_, 500u);
  const Priced p = Price(executor_,
                         "SELECT timestamp, metric FROM ring WHERE metric > "
                         "95000 ORDER BY metric DESC LIMIT 10");
  EXPECT_EQ(p.rows, 10u);
  EXPECT_LE(p.allocs, p.rows + kFixedAllowance);
}

TEST_F(AqeAlloc, TimeRangeAllocatesPerReturnedRow) {
  const TimeNs from = 1'000'000 + 4000 * 1000;
  const TimeNs to = from + 143 * 1000;
  const Priced p = Price(executor_,
                         "SELECT timestamp, metric FROM ring WHERE timestamp "
                         "BETWEEN " + std::to_string(from) + " AND " +
                             std::to_string(to));
  EXPECT_EQ(p.rows, 144u);
  EXPECT_LE(p.allocs, p.rows + kFixedAllowance);
}

TEST_F(AqeAlloc, LatestUnionAllocatesPerReturnedRow) {
  std::string query;
  for (int t = 0; t < 16; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "u%02d", t);
    ASSERT_TRUE(broker_.CreateTopic(name).ok());
    for (int i = 0; i < 4; ++i) {
      const TimeNs ts = 1000 + i;
      ASSERT_TRUE(broker_
                      .Publish(name, kLocalNode, ts,
                               Sample{ts, static_cast<double>(t * 10 + i),
                                      Provenance::kMeasured})
                      .ok());
    }
    if (t > 0) query += " UNION ";
    query += std::string("SELECT MAX(Timestamp), metric FROM ") + name;
  }
  const Priced p = Price(executor_, query);
  EXPECT_EQ(p.rows, 16u);
  EXPECT_LE(p.allocs, p.rows + kFixedAllowance);
}

// A repeated history aggregate merges tier summaries where it can: the
// cold blocks' and every WAL segment's. Neither a summary nor a buffer may
// be copied or regrown per query, so the count does not grow with the
// segments and blocks a topic holds.
TEST_F(AqeAlloc, HistoryAggregateAllocatesNoRowOrSegment) {
  struct Shape {
    std::size_t rows;
    std::size_t compacted_segments;
  };
  for (const Shape shape : {Shape{600, 10}, Shape{3000, 120}}) {
    SCOPED_TRACE(std::to_string(shape.rows) + " rows");
    constexpr std::size_t kRecords = 16;
    WalConfig config;
    config.segment_bytes =
        wal::kHeaderSize +
        kRecords * (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
    TempWal wal(config);
    coldtier::ColdTier cold(wal.path());
    ASSERT_TRUE(cold.Open().ok());
    wal.AttachColdReader(&cold);
    Broker broker(RealClock::Instance());
    ASSERT_TRUE(broker.CreateTopic("hist", kLocalNode, 64, &wal).ok());
    for (std::size_t i = 0; i < shape.rows; ++i) {
      const TimeNs ts = 1'000 + static_cast<TimeNs>(i) * 10;
      ASSERT_TRUE(broker
                      .Publish("hist", kLocalNode, ts,
                               Sample{ts, static_cast<double>(i % 97),
                                      Provenance::kMeasured})
                      .ok());
    }
    auto compacted = cold.CompactOnce(wal, shape.compacted_segments);
    ASSERT_TRUE(compacted.ok());
    ASSERT_EQ(cold.BlockCount(), shape.compacted_segments);
    ASSERT_GE(wal.SealedSegments().size(), 10u);
    Executor executor(broker);
    const Priced p = Price(executor,
                           "SELECT COUNT(*), SUM(metric), MIN(metric), "
                           "MAX(metric), LAST(metric) FROM hist");
    EXPECT_EQ(p.rows, 1u);
    EXPECT_LE(p.allocs, p.rows + kFixedAllowance);
  }
}

// A `monitor` history range: a topic with a 512-row ring over 64 KiB WAL
// segments (1365 rows, so one cold block each), and a WHERE timestamp
// BETWEEN that cuts two blocks, so no summary stands for them and both
// decode on every run. The decoded columns are reused per thread, so
// neither a block nor a row allocates, for an aggregate and for rows.
TEST_F(AqeAlloc, HistoryRangeDecodingBlocksAllocatesPerReturnedRow) {
  WalConfig config;
  config.segment_bytes = 64 << 10;
  TempWal wal(config);
  coldtier::ColdTier cold(wal.path());
  ASSERT_TRUE(cold.Open().ok());
  wal.AttachColdReader(&cold);
  Broker broker(RealClock::Instance());
  ASSERT_TRUE(broker.CreateTopic("hist", kLocalNode, 512, &wal).ok());
  const auto ts_of = [](std::size_t seq) {
    return 1'000'000'000 + static_cast<TimeNs>(seq) * 1000;
  };
  for (std::size_t i = 0; i < 8000; ++i) {
    ASSERT_TRUE(broker
                    .Publish("hist", kLocalNode, ts_of(i),
                             Sample{ts_of(i), static_cast<double>(i),
                                    Provenance::kMeasured})
                    .ok());
  }
  ASSERT_TRUE(cold.CompactOnce(wal).ok());
  ASSERT_GE(cold.BlockCount(), 2u);
  Executor executor(broker);
  // Rows 1200..1499: the end of the first block and the start of the next.
  const std::string between = " FROM hist WHERE timestamp BETWEEN " +
                              std::to_string(ts_of(1200)) + " AND " +
                              std::to_string(ts_of(1499));
  const std::pair<std::string, std::size_t> queries[] = {
      {"SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric)" + between, 1},
      {"SELECT timestamp, metric" + between, 300},
  };
  for (const auto& [query, rows] : queries) {
    SCOPED_TRACE(query);
    auto profile = executor.Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ(profile->vertices.at(0).cold_blocks_scanned, 2u);
    EXPECT_EQ(profile->vertices.at(0).cold_blocks_summarized, 0u);
    EXPECT_EQ(profile->vertices.at(0).cold_rows, 300u);
    const Priced p = Price(executor, query);
    EXPECT_EQ(p.rows, rows);
    EXPECT_LE(p.allocs, p.rows + kFixedAllowance);
  }
}

double Monotone(std::uint64_t seq) { return static_cast<double>(seq); }

// perfbench's `ingest` values (its ValueOf, topic 0).
double Hashed(std::uint64_t seq) {
  return static_cast<double>((seq * 2654435761ull) % 100000);
}

double Constant(std::uint64_t) { return 42.0; }

// One warmed PublishBatch in `ingest`'s shape: 512 samples into a full
// 128-row ring, so every sample evicts a row to the WAL, whose segment does
// not rotate during the measured batch. The ring's min/max wedges pop a
// front per evicted row; for monotone values (one wedge holds the whole
// window), `ingest`'s hashed values and constant ones alike, neither they
// nor the WAL write (into the writing thread's buffer, made by its first
// chunk) may allocate once warm, and the 512 evicted rows are one chunk
// write.
TEST(PublishAlloc, WarmBatchIntoFullRingAllocatesNothing) {
  constexpr std::size_t kRing = 128;
  constexpr std::size_t kBatch = 512;
  struct Values {
    const char* name;
    double (*of)(std::uint64_t seq);
  };
  const Values shapes[] = {
      {"monotone", Monotone}, {"hashed", Hashed}, {"constant", Constant}};
  for (const Values& values : shapes) {
    SCOPED_TRACE(values.name);
    TempWal wal;
    Broker broker(RealClock::Instance());
    ASSERT_TRUE(broker.CreateTopic("ingest", kLocalNode, kRing, &wal).ok());
    auto handle = broker.Resolve("ingest");
    ASSERT_TRUE(handle.ok());
    std::vector<TelemetryStream::Entry> batch(kBatch);
    std::uint64_t seq = 0;
    const auto publish = [&] {
      for (TelemetryStream::Entry& entry : batch) {
        const TimeNs ts = 1'000 + static_cast<TimeNs>(seq) * 10;
        entry.timestamp = ts;
        entry.value = Sample{ts, values.of(seq++), Provenance::kMeasured};
      }
      g_allocs.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
      auto result =
          broker.PublishBatch(*handle, kLocalNode, batch.data(), kBatch);
      g_counting.store(false, std::memory_order_relaxed);
      EXPECT_TRUE(result.ok() && result->accepted == kBatch);
      return g_allocs.load(std::memory_order_relaxed);
    };
    for (int warm = 0; warm < 8; ++warm) publish();
    const std::uint64_t flushes = wal.Flushes();
    EXPECT_EQ(publish(), 0u);
    EXPECT_EQ(wal.Flushes(), flushes + 1);
    EXPECT_EQ(wal.Count(), 9 * kBatch - kRing);
    EXPECT_EQ(wal.SegmentPaths().size(), 1u);  // no rotation
  }
}

}  // namespace
}  // namespace apollo::aqe

namespace apollo::net {
namespace {

// The encode of one `ingest` kPublishBatch payload, 8 runs of 512 samples:
// it sizes the payload once, so an empty payload grows by one allocation.
TEST(WireAlloc, PublishBatchEncodeAllocatesOnce) {
  PublishBatchMsg msg;
  for (int r = 0; r < 8; ++r) {
    PublishBatchMsg::Run run;
    run.topic = "ing.t00" + std::to_string(r);
    for (int i = 0; i < 512; ++i) {
      TelemetryStream::Entry entry;
      entry.timestamp = 1'000'000 + r * 7 + i * 1000;
      entry.value = Sample{entry.timestamp, static_cast<double>(i),
                           Provenance::kMeasured};
      run.entries.push_back(entry);
    }
    msg.runs.push_back(std::move(run));
  }
  ASSERT_EQ(msg.SampleCount(), 4096u);
  Payload payload;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  msg.Encode(payload);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 1u);
  // u32 run count; per run a u32 length, an 8-byte topic and a u32 count;
  // 25 bytes a sample.
  EXPECT_EQ(payload.size(), 4 + 8 * (4 + 8 + 4) + 4096 * 25u);
  PublishBatchMsg decoded;
  ASSERT_TRUE(PublishBatchMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.SampleCount(), 4096u);
}

}  // namespace
}  // namespace apollo::net
