// Concurrency stress tests for the ring-buffer TelemetryStream: multiple
// producers appending (with eviction into an Archiver) while cursor readers,
// time-range scans, and aggregate pollers run against the same stream.
//
// Invariants checked:
//  - ids seen by any cursor reader are strictly increasing;
//  - a row is in the archive before it leaves the window;
//  - after all threads join, archive ∪ window contains every id exactly once;
//  - the rolling aggregate index matches a brute-force rescan of the window.
//
// Values are integer-valued doubles so the rolling sums are exact.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pubsub/archiver.h"
#include "pubsub/stream.h"
#include "temp_wal.h"

namespace apollo {
namespace {

// Brute-force recomputation of the window aggregates via a cursor read.
StreamAggregates Rescan(const TelemetryStream& stream) {
  StreamAggregates agg;
  std::uint64_t cursor = 0;
  std::vector<StreamEntry<Sample>> window;
  stream.Read(cursor, window);
  agg.count = window.size();
  if (window.empty()) return agg;
  agg.min_value = agg.max_value = window.front().value.value;
  agg.min_timestamp = agg.max_timestamp = window.front().value.timestamp;
  for (const auto& entry : window) {
    agg.sum_value += entry.value.value;
    agg.sum_timestamp += static_cast<double>(entry.value.timestamp);
    agg.min_value = std::min(agg.min_value, entry.value.value);
    agg.max_value = std::max(agg.max_value, entry.value.value);
    agg.min_timestamp = std::min(agg.min_timestamp, entry.value.timestamp);
    agg.max_timestamp = std::max(agg.max_timestamp, entry.value.timestamp);
    if (entry.value.provenance == Provenance::kPredicted) ++agg.predicted;
  }
  agg.latest = window.back();
  return agg;
}

constexpr std::size_t kProducers = 4;
constexpr std::size_t kPerProducer = 20000;
constexpr std::size_t kTotal = kProducers * kPerProducer;
constexpr std::size_t kCapacity = 1024;
constexpr TimeNs kTs = 1000;  // constant: keeps timestamps monotonic
                              // under concurrent appends

TEST(StreamStress, ConcurrentAppendReadScanAndEvict) {
  TempWal archiver;
  TelemetryStream stream(kCapacity, &archiver);

  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&stream, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        // Integer-valued payload encoding (producer, seq); every 7th entry
        // is predicted to exercise the provenance counter.
        const double value = static_cast<double>(p * kPerProducer + i);
        const Provenance prov =
            (i % 7 == 0) ? Provenance::kPredicted : Provenance::kMeasured;
        stream.Append(kTs, Sample{kTs, value, prov});
      }
    });
  }

  // Cursor readers: ids must be strictly increasing along each cursor, and
  // payloads must be well-formed (integer-valued, in range).
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&stream, &done] {
      std::uint64_t cursor = 0;
      std::uint64_t last_id = 0;
      bool seen_any = false;
      std::vector<StreamEntry<Sample>> scratch;
      while (!done.load(std::memory_order_acquire)) {
        stream.Read(cursor, scratch, 256);
        for (const auto& entry : scratch) {
          if (seen_any) {
            ASSERT_GT(entry.id, last_id);
          }
          last_id = entry.id;
          seen_any = true;
          ASSERT_EQ(entry.value.value, std::floor(entry.value.value));
          ASSERT_GE(entry.value.value, 0.0);
          ASSERT_LT(entry.value.value, static_cast<double>(kTotal));
        }
      }
    });
  }

  // Time-range scanner: every in-memory entry matches [kTs, kTs] and the
  // batch is id-sorted.
  readers.emplace_back([&stream, &done] {
    std::vector<StreamEntry<Sample>> scratch;
    while (!done.load(std::memory_order_acquire)) {
      stream.RangeByTime(kTs, kTs, scratch);
      ASSERT_LE(scratch.size(), kCapacity);
      for (std::size_t i = 1; i < scratch.size(); ++i) {
        ASSERT_GT(scratch[i].id, scratch[i - 1].id);
      }
    }
  });

  // Aggregate poller: the O(1) snapshot must stay internally consistent
  // while producers churn the window.
  readers.emplace_back([&stream, &done] {
    while (!done.load(std::memory_order_acquire)) {
      auto agg = stream.Aggregates();
      if (!agg.has_value()) continue;
      ASSERT_GT(agg->count, 0u);
      ASSERT_LE(agg->count, kCapacity);
      ASSERT_LE(agg->min_value, agg->max_value);
      ASSERT_LE(agg->predicted, agg->count);
      ASSERT_GE(agg->sum_value,
                agg->min_value * static_cast<double>(agg->count));
      ASSERT_LE(agg->sum_value,
                agg->max_value * static_cast<double>(agg->count));
      // NextId is read after the snapshot, so it can only have advanced.
      ASSERT_LT(agg->latest.id, stream.NextId());
    }
  });

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Exactly-once accounting: archive ∪ window == {0, ..., kTotal-1}.
  ASSERT_EQ(stream.Size(), kCapacity);
  ASSERT_EQ(archiver.Count(), kTotal - kCapacity);
  auto archived = archiver.ReadRange(0, kTs);
  ASSERT_TRUE(archived.ok());
  std::vector<std::uint64_t> ids;
  ids.reserve(kTotal);
  for (const auto& rec : *archived) ids.push_back(rec.id);
  std::uint64_t cursor = 0;
  for (const auto& entry : stream.Read(cursor)) ids.push_back(entry.id);
  ASSERT_EQ(ids.size(), kTotal);
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t i = 0; i < kTotal; ++i) ASSERT_EQ(ids[i], i);

  // Post-join aggregate index vs brute-force rescan (exact: integer values).
  auto agg = stream.Aggregates();
  ASSERT_TRUE(agg.has_value());
  const StreamAggregates expect = Rescan(stream);
  EXPECT_EQ(agg->count, expect.count);
  EXPECT_EQ(agg->sum_value, expect.sum_value);
  EXPECT_EQ(agg->min_value, expect.min_value);
  EXPECT_EQ(agg->max_value, expect.max_value);
  EXPECT_EQ(agg->sum_timestamp, expect.sum_timestamp);
  EXPECT_EQ(agg->min_timestamp, expect.min_timestamp);
  EXPECT_EQ(agg->max_timestamp, expect.max_timestamp);
  EXPECT_EQ(agg->predicted, expect.predicted);
  EXPECT_EQ(agg->latest.id, expect.latest.id);
}

// Deterministic single-threaded churn: random values through a small window
// with eviction, comparing the rolling index against a rescan at every step.
// This pins down the monotonic-wedge bookkeeping exactly.
TEST(StreamStress, AggregateIndexMatchesRescanThroughEviction) {
  constexpr std::size_t kCapacity = 64;
  TempWal archiver;
  TelemetryStream stream(kCapacity, &archiver);

  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> value_dist(-50, 50);
  for (int i = 0; i < 2000; ++i) {
    const TimeNs ts = static_cast<TimeNs>(i);
    const double value = static_cast<double>(value_dist(rng));
    const Provenance prov =
        (i % 3 == 0) ? Provenance::kPredicted : Provenance::kMeasured;
    stream.Append(ts, Sample{ts, value, prov});

    auto agg = stream.Aggregates();
    ASSERT_TRUE(agg.has_value());
    const StreamAggregates expect = Rescan(stream);
    ASSERT_EQ(agg->count, expect.count) << "step " << i;
    ASSERT_EQ(agg->sum_value, expect.sum_value) << "step " << i;
    ASSERT_EQ(agg->min_value, expect.min_value) << "step " << i;
    ASSERT_EQ(agg->max_value, expect.max_value) << "step " << i;
    ASSERT_EQ(agg->min_timestamp, expect.min_timestamp) << "step " << i;
    ASSERT_EQ(agg->max_timestamp, expect.max_timestamp) << "step " << i;
    ASSERT_EQ(agg->predicted, expect.predicted) << "step " << i;
    ASSERT_EQ(agg->latest.id, expect.latest.id) << "step " << i;
  }
  ASSERT_EQ(archiver.Count(), 2000 - kCapacity);
}

// Ring growth: a stream created with a large capacity starts on a small ring
// and doubles as ids advance; reads must stay correct across every growth
// boundary.
TEST(StreamStress, RingGrowthPreservesEntries) {
  TelemetryStream stream(4096);  // starts at 64 slots, grows to 4096
  for (int i = 0; i < 3000; ++i) {
    const TimeNs ts = static_cast<TimeNs>(i * 10);
    stream.Append(ts, Sample{ts, static_cast<double>(i),
                             Provenance::kMeasured});
  }
  std::uint64_t cursor = 0;
  const auto entries = stream.Read(cursor);
  ASSERT_EQ(entries.size(), 3000u);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(entries[i].id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(entries[i].timestamp, static_cast<TimeNs>(i * 10));
    EXPECT_EQ(entries[i].value.value, static_cast<double>(i));
  }
  const auto ranged = stream.RangeByTime(5000, 9990);
  ASSERT_EQ(ranged.size(), 500u);
  EXPECT_EQ(ranged.front().timestamp, 5000);
  EXPECT_EQ(ranged.back().timestamp, 9990);
}

// Four appenders race readers that snapshot the ring and then read the
// archive. A row leaves the ring only once the archive holds it, so every
// archive read is ids 0..k-1 in order with k at least the oldest id of the
// ring snapshot taken just before it. After the appenders return (no flush
// call), ring ∪ archive covers every id exactly once, in id order.
TEST(StreamStress, ConcurrentFlushEvictionsKeepArchiveOrdered) {
  TempWal archiver;
  TelemetryStream stream(/*capacity=*/256, &archiver);
  constexpr std::size_t kAppenders = 4;
  constexpr std::size_t kPerAppender = 5000;
  constexpr std::size_t kAppends = kAppenders * kPerAppender;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<StreamEntry<Sample>> window;
      std::vector<Archiver<Sample>::Record> archived;
      while (!done.load(std::memory_order_acquire)) {
        std::uint64_t cursor = 0;
        stream.Read(cursor, window);
        if (window.empty()) continue;
        ASSERT_TRUE(archiver.ReadRange(0, kTs, archived).ok());
        ASSERT_GE(archived.size(), window.front().id)
            << "a row left the ring before the archive held it";
        for (std::size_t i = 0; i < archived.size(); ++i) {
          ASSERT_EQ(archived[i].id, i);
        }
      }
    });
  }

  std::vector<std::thread> appenders;
  for (std::size_t a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&stream, a] {
      for (std::size_t i = 0; i < kPerAppender; ++i) {
        const double value = static_cast<double>(a * kPerAppender + i);
        stream.Append(kTs, Sample{kTs, value, Provenance::kMeasured});
      }
    });
  }
  for (auto& th : appenders) th.join();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  auto records = archiver.ReadRange(0, kTs);
  ASSERT_TRUE(records.ok());
  std::uint64_t cursor = 0;
  const auto window = stream.Read(cursor);
  ASSERT_EQ(window.size(), 256u);
  ASSERT_EQ(records->size() + window.size(), kAppends);
  for (std::size_t i = 0; i < records->size(); ++i) {
    ASSERT_EQ((*records)[i].id, static_cast<std::uint64_t>(i));
  }
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window[i].id, records->size() + i);
  }
}

// A reader scans the window as column spans while appenders grow a fresh
// ring from 64 slots to its capacity and then wrap it, round after round.
// An open range comes in at most two spans (one more only where it wraps
// the ring), a bounded one in spans of at most kSpanRows rows; ids run on
// contiguously across the spans of a scan, the window never moves back,
// and rows come in append order: each appender's sequence numbers rise in
// id order, and each row's columns hold the sample its appender wrote. The
// reader scans again only once rows were appended since its last scan, or
// once the appenders have finished, so it never holds the stream lock in a
// loop while they wait for it.
TEST(StreamStress, ColumnScanWhileAppendersWrapAndGrow) {
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kAppenders = 3;
  constexpr std::size_t kPerAppender = 3000;
  constexpr std::size_t kWindow = 1000;  // 1024 slots once grown
  constexpr std::size_t kSlots = 1024;
  constexpr std::size_t kSpanRows = TelemetryStream::kSpanRows;
  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    TelemetryStream stream(kWindow);
    std::atomic<bool> done{false};
    std::atomic<bool> appended_all{false};
    std::atomic<std::uint64_t> appended{0};
    std::atomic<std::uint64_t> scans{0};
    std::atomic<std::uint64_t> broken{0};  // scans that broke an invariant

    std::thread reader([&] {
      std::uint64_t oldest = 0;
      std::uint64_t scanned_at = 0;  // `appended` when the last scan began
      bool to_end = false;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t now = appended.load(std::memory_order_acquire);
        if (now == scanned_at &&
            !appended_all.load(std::memory_order_acquire)) {
          std::this_thread::yield();
          continue;
        }
        scanned_at = now;
        // Alternate an open end (no walk) with one at kTs (a walk).
        to_end = !to_end;
        const TimeNs to = to_end ? std::numeric_limits<TimeNs>::max() : kTs;
        std::size_t spans = 0;
        std::size_t rows = 0;
        std::uint64_t next_id = 0;
        bool ok = true;
        std::int64_t last_seq[kAppenders];
        std::fill(std::begin(last_seq), std::end(last_seq), -1);
        stream.VisitColumns(
            kTs, to, [&](std::uint64_t first_id, const ColumnSpan& span) {
              ok &= span.size > 0 && (to_end || span.size <= kSpanRows);
              ok &= spans == 0 ? first_id >= oldest : first_id == next_id;
              if (spans == 0) oldest = first_id;
              ++spans;
              rows += span.size;
              next_id = first_id + span.size;
              for (std::size_t j = 0; j < span.size; ++j) {
                const double value = span.values[j];
                const auto code = static_cast<std::size_t>(value);
                const std::size_t appender = code / kPerAppender;
                const auto seq =
                    static_cast<std::int64_t>(code % kPerAppender);
                ok &= static_cast<double>(code) == value &&
                      appender < kAppenders;
                if (!ok) return false;
                ok &= seq > last_seq[appender];
                last_seq[appender] = seq;
                ok &= span.ts[j] == kTs;
                ok &= span.provenance[j] == (seq % 7 == 0
                                                 ? Provenance::kPredicted
                                                 : Provenance::kMeasured);
              }
              return true;
            });
        ok &= (!to_end || spans <= 2) && rows <= kWindow;
        if (!ok) broken.fetch_add(1, std::memory_order_relaxed);
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });

    std::vector<std::thread> appenders;
    for (std::size_t a = 0; a < kAppenders; ++a) {
      appenders.emplace_back([&stream, &appended, a] {
        for (std::size_t i = 0; i < kPerAppender; ++i) {
          const Provenance prov =
              i % 7 == 0 ? Provenance::kPredicted : Provenance::kMeasured;
          stream.Append(
              kTs, Sample{kTs, static_cast<double>(a * kPerAppender + i),
                          prov});
          appended.fetch_add(1, std::memory_order_release);
        }
      });
    }
    for (auto& th : appenders) th.join();
    appended_all.store(true, std::memory_order_release);
    // Let the reader scan the full, wrapped window before it stops.
    const std::uint64_t settled = scans.load(std::memory_order_relaxed);
    while (scans.load(std::memory_order_relaxed) < settled + 2) {
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(broken.load(), 0u) << "of " << scans.load() << " scans";

    // The settled window: the last kWindow ids, split where the ring
    // wraps: two spans for an open range, and kSpanRows-row spans on
    // either side of the wrap for a bounded one.
    const std::uint64_t first = stream.NextId() - kWindow;
    const std::size_t before_wrap = kSlots - first % kSlots;
    ASSERT_LT(before_wrap, kWindow);
    const std::size_t after_wrap = kWindow - before_wrap;
    const auto chunks = [](std::size_t n) {
      return (n + kSpanRows - 1) / kSpanRows;
    };
    for (const TimeNs to : {std::numeric_limits<TimeNs>::max(), kTs}) {
      std::size_t spans = 0;
      std::uint64_t next_id = first;
      stream.VisitColumns(
          kTs, to, [&](std::uint64_t first_id, const ColumnSpan& span) {
            ++spans;
            EXPECT_EQ(first_id, next_id);
            next_id += span.size;
            return true;
          });
      EXPECT_EQ(spans, to == kTs ? chunks(before_wrap) + chunks(after_wrap)
                                 : 2u);
      EXPECT_EQ(next_id, stream.NextId());
    }
  }
}

}  // namespace
}  // namespace apollo
