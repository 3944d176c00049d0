// Cold-tier integration: sealed WAL segments compact into columnar
// blocks, zone maps prune scans, reconcile sweeps crash debris, the
// service answers time-travel queries over data evicted from both the
// ring and the raw WAL tier, and the whole stack survives a
// compact-while-publish-while-query hammering under TSan
// (suite names carry "ColdTier" so the tsan name filter picks them up).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apollo/apollo_service.h"
#include "aqe/executor.h"
#include "coldtier/block_format.h"
#include "coldtier/cold_tier.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"
#include "score/monitor_hook.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;
using coldtier::ColdTier;

constexpr std::size_t kFrameBytes =
    wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Rotate every `records_per_segment` appends.
WalConfig SmallSegments(std::size_t records_per_segment) {
  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize + records_per_segment * kFrameBytes;
  return config;
}

void AppendN(Archiver<Sample>& archiver, std::uint64_t from,
             std::uint64_t count) {
  for (std::uint64_t i = from; i < from + count; ++i) {
    ASSERT_TRUE(archiver
                    .Append(i, Seconds(static_cast<double>(i + 1)),
                            Sample{Seconds(static_cast<double>(i + 1)),
                                   static_cast<double>(i),
                                   Provenance::kMeasured})
                    .ok());
  }
}

TEST(ColdTierCompaction, SealedSegmentsBecomeBlocksAndWalShrinks) {
  const std::string dir = FreshDir("coldtier_compact");
  const std::string base = dir + "/metric.log";
  Archiver<Sample> archiver(base, SmallSegments(4));
  ASSERT_TRUE(archiver.OpenStatus().ok());
  AppendN(archiver, 0, 22);  // 5 sealed segments + active tail

  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  EXPECT_EQ(cold.ColdRowCount(), 0u);
  auto result = cold.CompactOnce(archiver);
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(result->segments_compacted, 5u);
  EXPECT_EQ(result->blocks_written, 5u);
  EXPECT_EQ(result->rows_compacted, 20u);
  EXPECT_GT(result->raw_bytes, result->block_bytes);

  // Compacted rows left the WAL; the union is exactly what was appended.
  EXPECT_EQ(cold.ColdRowCount(), 20u);
  EXPECT_EQ(archiver.Count(), 2u);
  EXPECT_TRUE(cold.IsCompacted(5));
  EXPECT_FALSE(cold.IsCompacted(6));

  // Every compacted row comes back, in order, bit-for-bit.
  std::vector<std::uint64_t> ids;
  ColdScanStats stats;
  ASSERT_TRUE(cold.ScanRange(0, Seconds(1000),
                             [&](std::uint64_t id, TimeNs ts,
                                 const Sample& sample) {
                               EXPECT_EQ(ts, sample.timestamp);
                               EXPECT_DOUBLE_EQ(sample.value,
                                                static_cast<double>(id));
                               ids.push_back(id);
                             },
                             &stats)
                  .ok());
  ASSERT_EQ(ids.size(), 20u);
  for (std::uint64_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  EXPECT_EQ(stats.blocks_scanned, 5u);
  EXPECT_EQ(stats.blocks_pruned, 0u);

  // Idempotent: nothing sealed is left, so a second pass is a no-op.
  auto again = cold.CompactOnce(archiver);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_compacted, 0u);
  fs::remove_all(dir);
}

TEST(ColdTierCompaction, ZoneMapsPruneDisjointRanges) {
  const std::string dir = FreshDir("coldtier_prune");
  const std::string base = dir + "/metric.log";
  Archiver<Sample> archiver(base, SmallSegments(8));
  AppendN(archiver, 0, 65);  // 8 sealed segments, 8 rows each

  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  ASSERT_TRUE(cold.CompactOnce(archiver).ok());
  ASSERT_EQ(cold.BlockCount(), 8u);

  // One mid-range segment: rows 24..31 live at t = 25s..32s.
  ColdScanStats stats;
  std::uint64_t rows = 0;
  ASSERT_TRUE(cold.ScanRange(Seconds(25), Seconds(32),
                             [&](std::uint64_t, TimeNs, const Sample&) {
                               ++rows;
                             },
                             &stats)
                  .ok());
  EXPECT_EQ(rows, 8u);
  EXPECT_EQ(stats.blocks_scanned, 1u);
  EXPECT_EQ(stats.blocks_pruned, 7u);

  // A range past everything touches no block at all.
  ColdScanStats none;
  rows = 0;
  ASSERT_TRUE(cold.ScanRange(Seconds(5000), Seconds(6000),
                             [&](std::uint64_t, TimeNs, const Sample&) {
                               ++rows;
                             },
                             &none)
                  .ok());
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(none.blocks_scanned, 0u);
  EXPECT_EQ(none.blocks_pruned, 8u);
  fs::remove_all(dir);
}

// A block's rows need not be in time order: the wire accepts a timestamp
// below the topic's last one. For every range start and cap that splits
// such a block, VisitRange hands over exactly the rows a per-row filter
// keeps (timestamp at or after the start, kept by the cap), in stored
// order, as one span per maximal run of kept rows; ScanRange agrees row
// for row.
TEST(ColdTierSpans, BackwardsTimestampsComeAsRunsOfKeptRows) {
  const std::string dir = FreshDir("coldtier_backwards");
  const std::string base = dir + "/metric.log";
  constexpr std::size_t kRows = 48;
  Archiver<Sample> archiver(base, SmallSegments(kRows));
  ASSERT_TRUE(archiver.OpenStatus().ok());
  struct Row {
    std::uint64_t id;
    Sample sample;
  };
  std::vector<Row> rows;
  Rng rng(0xBAC6u);
  std::uint64_t id = 7;
  TimeNs ts = Seconds(100);
  std::size_t backwards = 0, equal = 0;
  // One more row than a segment holds, so the first segment is sealed.
  for (std::size_t i = 0; i <= kRows; ++i) {
    const auto prov = i % 5 == 0 ? Provenance::kPredicted
                                 : Provenance::kMeasured;
    const Sample sample{ts, static_cast<double>(i) * 0.5 - 3.0, prov};
    ASSERT_TRUE(archiver.Append(id, ts, sample).ok());
    rows.push_back(Row{id, sample});
    id += 1 + rng.NextBounded(3);
    const TimeNs step =
        rng.Bernoulli(0.25)
            ? 0
            : Seconds(static_cast<double>(rng.NextBounded(9)) - 3.0);
    backwards += step < 0;
    equal += step == 0;
    ts += step;
  }
  rows.pop_back();  // the active segment's
  ASSERT_GT(backwards, 5u);
  ASSERT_GT(equal, 3u);

  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  auto compacted = cold.CompactOnce(archiver);
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  ASSERT_EQ(compacted->rows_compacted, kRows);
  ASSERT_EQ(cold.BlockCount(), 1u);

  const auto same = [](const Sample& a, const Sample& b) {
    return a.timestamp == b.timestamp && a.provenance == b.provenance &&
           std::memcmp(&a.value, &b.value, sizeof(a.value)) == 0;
  };
  const auto check = [&](TimeNs from, TierCap cap) {
    SCOPED_TRACE("from " + std::to_string(from) + " cap (" +
                 std::to_string(cap.to_ts) + ", " +
                 std::to_string(cap.below_id) + ")");
    std::vector<std::size_t> want;  // positions in the block
    std::size_t runs = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const TimeNs row_ts = rows[i].sample.timestamp;
      if (row_ts < from || !cap.Keeps(row_ts, rows[i].id)) continue;
      if (want.empty() || want.back() + 1 != i) ++runs;
      want.push_back(i);
    }
    std::size_t got = 0;
    std::size_t spans = 0;
    ColdScanStats stats;
    ASSERT_TRUE(cold.VisitRange(
                        from, cap, nullptr,
                        [&](const std::uint64_t* ids, const ColumnSpan& span) {
                          ++spans;
                          EXPECT_GT(span.size, 0u);
                          for (std::size_t j = 0; j < span.size; ++j, ++got) {
                            ASSERT_LT(got, want.size());
                            const Row& row = rows[want[got]];
                            EXPECT_EQ(ids[j], row.id);
                            EXPECT_TRUE(same(span.At(j), row.sample));
                          }
                        },
                        &stats)
                    .ok());
    EXPECT_EQ(got, want.size());
    EXPECT_EQ(spans, runs);
    EXPECT_EQ(stats.rows_visited, want.size());
  };
  // Range starts at, between and beyond the block's timestamps; caps below
  // every row's id, through every timestamp, and both at once.
  std::vector<TimeNs> starts = {Seconds(-1000)};
  for (const Row& row : rows) {
    starts.push_back(row.sample.timestamp);
    starts.push_back(row.sample.timestamp + 1);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  for (const TimeNs from : starts) {
    for (const Row& row : rows) {
      check(from, TierCap{Seconds(1000), row.id});
      check(from, TierCap::Through(row.sample.timestamp));
      check(from, TierCap{row.sample.timestamp, row.id});
    }
    check(from, TierCap{Seconds(1000), 0});
    if (HasFatalFailure()) return;
  }

  // ScanRange reads [from, to] row by row: the same rows, in block order.
  for (const TimeNs from : starts) {
    for (const TimeNs to : starts) {
      std::vector<std::size_t> want;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const TimeNs row_ts = rows[i].sample.timestamp;
        if (row_ts >= from && row_ts <= to) want.push_back(i);
      }
      std::size_t got = 0;
      ASSERT_TRUE(cold.ScanRange(
                          from, to,
                          [&](std::uint64_t row_id, TimeNs row_ts,
                              const Sample& sample) {
                            ASSERT_LT(got, want.size());
                            const Row& row = rows[want[got++]];
                            EXPECT_EQ(row_id, row.id);
                            EXPECT_EQ(row_ts, row.sample.timestamp);
                            EXPECT_TRUE(same(sample, row.sample));
                          },
                          nullptr)
                      .ok());
      EXPECT_EQ(got, want.size()) << "[" << from << ", " << to << "]";
    }
  }
  fs::remove_all(dir);
}

TEST(ColdTierCompaction, ReconcileSweepsCrashDebris) {
  const std::string dir = FreshDir("coldtier_reconcile");
  const std::string base = dir + "/metric.log";
  Archiver<Sample> archiver(base, SmallSegments(4));
  AppendN(archiver, 0, 10);

  // Crash debris: an orphan tmp block and an unreferenced full block.
  const std::string orphan_tmp = base + ".1.blk.tmp";
  const std::string orphan_blk = base + ".9.blk";
  for (const std::string& path : {orphan_tmp, orphan_blk}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("debris", f);
    std::fclose(f);
  }

  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  ASSERT_TRUE(cold.Reconcile(archiver).ok());
  EXPECT_FALSE(fs::exists(orphan_tmp));
  EXPECT_FALSE(fs::exists(orphan_blk));
  // The WAL itself is untouched.
  EXPECT_EQ(archiver.Count(), 10u);
  fs::remove_all(dir);
}

// The full service stack: rows age out of the ring into the WAL, sealed
// segments compact into blocks, the raw segments are deleted — and a
// BETWEEN query over that evicted span still answers exactly, with
// EXPLAIN ANALYZE attributing the rows to the cold tier and reporting
// zone-map pruning.
TEST(ColdTierService, TimeTravelQueryPastRingAndWal) {
  const std::string dir = FreshDir("coldtier_service");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  options.wal = SmallSegments(4);
  options.coldtier_enabled = true;
  ApolloService apollo(options);

  FactDeployment deployment;
  deployment.topic = "metric";
  deployment.queue_capacity = 8;  // tiny ring: most rows evict
  deployment.publish_only_on_change = false;
  std::atomic<int> tick{0};
  MonitorHook hook{"metric",
                   [&tick](TimeNs) {
                     return static_cast<double>(tick.fetch_add(1));
                   },
                   0};
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
  ASSERT_TRUE(apollo.RunFor(Seconds(64)).ok());

  // Evictions flush on query; then compaction drains the sealed tail.
  auto total =
      apollo.Query("SELECT COUNT(*) FROM metric WHERE Timestamp >= 0");
  ASSERT_TRUE(total.ok());
  const double published = total->rows[0].values[0];
  ASSERT_GE(published, 32.0);

  auto compacted = apollo.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  ASSERT_GT(compacted->blocks_written, 0u);
  ColdTier* cold = apollo.cold_tier("metric");
  ASSERT_NE(cold, nullptr);
  ASSERT_GT(cold->ColdRowCount(), 0u);

  // The queried span lives only in cold blocks now: it left the ring
  // (capacity 8) and its WAL segments were deleted after the manifest
  // committed.
  TimeNs cold_min = 0, cold_max = 0;
  cold->TsBounds(&cold_min, &cold_max);
  ASSERT_GT(cold_max, cold_min);
  std::ostringstream sql;
  sql << "SELECT COUNT(*) FROM metric WHERE Timestamp BETWEEN "
      << cold_min << " AND " << cold_max;
  auto travel = apollo.Query(sql.str());
  ASSERT_TRUE(travel.ok()) << travel.error().ToString();
  EXPECT_FALSE(travel->degraded);
  EXPECT_DOUBLE_EQ(travel->rows[0].values[0],
                   static_cast<double>(cold->ColdRowCount()));

  // COUNT over everything is still exact across all three tiers: no row
  // lost to compaction, none double-counted at a tier boundary.
  auto recount =
      apollo.Query("SELECT COUNT(*) FROM metric WHERE Timestamp >= 0");
  ASSERT_TRUE(recount.ok());
  EXPECT_DOUBLE_EQ(recount->rows[0].values[0], published);

  // EXPLAIN ANALYZE names the cold tier and accounts for pruning.
  auto profile = apollo.Explain(sql.str(), /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->vertices.size(), 1u);
  const aqe::VertexProfile& vertex = profile->vertices[0];
  EXPECT_NE(vertex.strategy.find("+cold"), std::string::npos)
      << vertex.strategy;
  EXPECT_EQ(vertex.cold_rows, cold->ColdRowCount());
  EXPECT_EQ(vertex.cold_blocks_scanned + vertex.cold_blocks_pruned,
            cold->BlockCount());
  const std::string text = profile->ToText();
  EXPECT_NE(text.find("cold_blocks_scanned="), std::string::npos) << text;
  fs::remove_all(dir);
}

// A second DeployFact of a live topic is rejected before it opens another
// archiver and cold tier on the topic's files, so the live topic keeps its
// WAL wiring: compaction still drains every sealed segment it writes.
TEST(ColdTierService, RejectedDuplicateDeployKeepsLiveWiring) {
  const std::string dir = FreshDir("coldtier_duplicate_deploy");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  options.wal = SmallSegments(4);
  options.coldtier_enabled = true;
  ApolloService apollo(options);

  FactDeployment deployment;
  deployment.topic = "f";
  deployment.queue_capacity = 8;
  deployment.publish_only_on_change = false;
  std::atomic<int> tick{0};
  auto hook = [&tick] {
    return MonitorHook{"f",
                       [&tick](TimeNs) {
                         return static_cast<double>(tick.fetch_add(1));
                       },
                       0};
  };
  ASSERT_TRUE(apollo.DeployFact(hook(), deployment).ok());
  ColdTier* live = apollo.cold_tier("f");
  ASSERT_NE(live, nullptr);
  auto duplicate = apollo.DeployFact(hook(), deployment);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(apollo.cold_tier("f"), live);

  // 49 rows (t = 0..48 s) through a ring of 8: 41 reach the WAL, which
  // seals 10 segments of 4 rows.
  ASSERT_TRUE(apollo.RunFor(Seconds(48)).ok());
  auto compacted = apollo.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  EXPECT_EQ(compacted->segments_compacted, 10u);
  EXPECT_EQ(compacted->rows_compacted, 40u);
  EXPECT_EQ(live->ColdRowCount(), 40u);
  auto total = apollo.Query("SELECT COUNT(*) FROM f WHERE Timestamp >= 0");
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(total->rows[0].values[0], 49.0);
  fs::remove_all(dir);
}

// Undeploy keeps the topic's broker stream, which keeps evicting into the
// archiver of the topic's first deploy. A redeploy reuses that archiver
// and its cold tier, so compaction and reads see one WAL: a second pair
// opened on the same files compacted and deleted segments the first still
// served, and the history answered 8 of 58 rows, degraded.
TEST(ColdTierService, RedeployAfterUndeployKeepsOneStorage) {
  const std::string dir = FreshDir("coldtier_redeploy");
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  options.wal = SmallSegments(4);
  options.coldtier_enabled = true;
  ApolloService apollo(options);

  FactDeployment deployment;
  deployment.topic = "f";
  deployment.queue_capacity = 8;
  deployment.publish_only_on_change = false;
  std::atomic<int> published{0};
  auto hook = [&published] {
    return MonitorHook{"f",
                       [&published](TimeNs) {
                         return static_cast<double>(published.fetch_add(1));
                       },
                       0};
  };
  ASSERT_TRUE(apollo.DeployFact(hook(), deployment).ok());
  ColdTier* cold = apollo.cold_tier("f");
  ASSERT_NE(cold, nullptr);
  ASSERT_TRUE(apollo.RunFor(Seconds(24)).ok());
  ASSERT_TRUE(apollo.Undeploy("f").ok());
  ASSERT_TRUE(apollo.DeployFact(hook(), deployment).ok());
  ASSERT_TRUE(apollo.RunFor(Seconds(24)).ok());
  auto compacted = apollo.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.error().message();
  EXPECT_GT(compacted->rows_compacted, 0u);
  ASSERT_TRUE(apollo.RunFor(Seconds(8)).ok());

  auto total = apollo.Query("SELECT COUNT(*) FROM f WHERE Timestamp >= 0");
  ASSERT_TRUE(total.ok()) << total.error().ToString();
  EXPECT_DOUBLE_EQ(total->rows[0].values[0],
                   static_cast<double>(published.load()));
  EXPECT_FALSE(total->degraded);
  EXPECT_EQ(apollo.cold_tier("f"), cold);
  fs::remove_all(dir);
}

// A restarted service recovers cold blocks through the manifest: the
// report counts them and time-travel queries answer immediately.
TEST(ColdTierService, RecoverReportsColdBlocks) {
  const std::string dir = FreshDir("coldtier_recover");
  std::uint64_t cold_rows = 0;
  double expected_total = 0;
  {
    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kSimulated;
    options.archive_dir = dir;
    options.wal = SmallSegments(4);
    options.coldtier_enabled = true;
    ApolloService apollo(options);
    FactDeployment deployment;
    deployment.topic = "metric";
    deployment.queue_capacity = 4;
    deployment.publish_only_on_change = false;
    std::atomic<int> tick{0};
    MonitorHook hook{"metric",
                     [&tick](TimeNs) {
                       return static_cast<double>(tick.fetch_add(1));
                     },
                     0};
    ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
    ASSERT_TRUE(apollo.RunFor(Seconds(40)).ok());
    auto flush =
        apollo.Query("SELECT COUNT(*) FROM metric WHERE Timestamp >= 0");
    ASSERT_TRUE(flush.ok());
    expected_total = flush->rows[0].values[0];
    auto compacted = apollo.CompactNow();
    ASSERT_TRUE(compacted.ok());
    cold_rows = apollo.cold_tier("metric")->ColdRowCount();
    ASSERT_GT(cold_rows, 0u);
  }

  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  options.wal = SmallSegments(4);
  options.coldtier_enabled = true;
  ApolloService apollo(options);
  FactDeployment deployment;
  deployment.topic = "metric";
  deployment.queue_capacity = 4;
  MonitorHook hook{"metric", [](TimeNs) { return 0.0; }, 0};
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
  auto report = apollo.Recover();
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_GT(report->cold_blocks, 0u);
  EXPECT_EQ(report->cold_rows, cold_rows);
  EXPECT_EQ(report->cold_quarantined_blocks, 0u);

  // Everything that ever left the ring survives the restart. The 4 rows
  // still inside the ring when the first service died were never evicted
  // into the WAL, so they are (by design) not durable.
  auto count =
      apollo.Query("SELECT COUNT(*) FROM metric WHERE Timestamp >= 0");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], expected_total - 4);
  fs::remove_all(dir);
}

// TSan leg: a publisher appending, a compactor draining, and two readers
// (WAL range reads + cold scans) hammer the same archiver+tier. The test
// asserts conservation at every read: rows observed never exceed rows
// acked, and the final union is exact.
TEST(ColdTierStress, CompactWhilePublishWhileQuery) {
  const std::string dir = FreshDir("coldtier_stress");
  const std::string base = dir + "/metric.log";
  Archiver<Sample> archiver(base, SmallSegments(8));
  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  archiver.AttachColdReader(&cold);

  constexpr std::uint64_t kRows = 4000;
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> done{false};

  std::thread publisher([&] {
    for (std::uint64_t i = 0; i < kRows; ++i) {
      // Advance the counter before the append: a row becomes visible to
      // the readers the instant Append lands, so "may be visible" must be
      // declared first or the seen<=acked check races the store.
      acked.store(i + 1, std::memory_order_release);
      Status status =
          archiver.Append(i, Seconds(static_cast<double>(i + 1)),
                          Sample{Seconds(static_cast<double>(i + 1)),
                                 static_cast<double>(i),
                                 Provenance::kMeasured});
      if (!status.ok()) {
        acked.store(i, std::memory_order_release);
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto result = cold.CompactOnce(archiver, 2);
      if (!result.ok()) break;
      std::this_thread::yield();
    }
    (void)cold.CompactOnce(archiver);  // drain the tail
  });

  // The scanner and the reader start their next pass only once a row was
  // acked since their last one, so neither holds a lock in a loop while
  // the publisher and the compactor wait for it; false once the publisher
  // is done and no row came after the last pass.
  const auto wait_for_rows = [&](std::uint64_t& passed_at) {
    for (;;) {
      const std::uint64_t now = acked.load(std::memory_order_acquire);
      if (now != passed_at) {
        passed_at = now;
        return true;
      }
      if (done.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
  };

  std::thread scanner([&] {
    std::uint64_t scanned_at = 0;
    while (wait_for_rows(scanned_at)) {
      ColdScanStats stats;
      std::uint64_t seen = 0;
      (void)cold.ScanRange(0, Seconds(static_cast<double>(kRows + 1)),
                           [&](std::uint64_t, TimeNs, const Sample&) {
                             ++seen;
                           },
                           &stats);
      // A scan can race a commit, but can never see more than was acked.
      EXPECT_LE(seen, acked.load(std::memory_order_acquire));
    }
  });

  std::thread reader([&] {
    std::uint64_t read_at = 0;
    while (wait_for_rows(read_at)) {
      auto rows = archiver.ReadRange(0, Seconds(static_cast<double>(kRows)));
      if (rows.ok()) {
        EXPECT_LE(rows->size(), acked.load(std::memory_order_acquire));
      }
    }
  });

  publisher.join();
  compactor.join();
  scanner.join();
  reader.join();

  ASSERT_EQ(acked.load(), kRows);
  // Conservation after the dust settles: every acked row is in exactly
  // one tier.
  EXPECT_EQ(cold.ColdRowCount() + archiver.Count(), kRows);
  std::vector<bool> present(kRows, false);
  std::uint64_t dupes = 0;
  ColdScanStats stats;
  ASSERT_TRUE(cold.ScanRange(0, Seconds(static_cast<double>(kRows + 1)),
                             [&](std::uint64_t id, TimeNs, const Sample&) {
                               if (present[id]) ++dupes;
                               present[id] = true;
                             },
                             &stats)
                  .ok());
  auto wal_rows =
      archiver.ReadRange(0, Seconds(static_cast<double>(kRows + 1)));
  ASSERT_TRUE(wal_rows.ok());
  for (const auto& rec : *wal_rows) {
    if (present[rec.id]) ++dupes;
    present[rec.id] = true;
  }
  EXPECT_EQ(dupes, 0u);
  std::uint64_t missing = 0;
  for (bool p : present) missing += p ? 0 : 1;
  EXPECT_EQ(missing, 0u);
  fs::remove_all(dir);
}

// COUNT, SUM, MIN and MAX over the rows with ids in [lo, hi], minus the
// ids in [lost_lo, lost_hi] when `drop`, for a topic whose row i has value
// i. An empty set has COUNT 0 and NaN cells.
std::vector<double> IdRangeAggregates(std::uint64_t lo, std::uint64_t hi,
                                      bool drop, std::uint64_t lost_lo,
                                      std::uint64_t lost_hi) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double count = 0, sum = 0, min = nan, max = nan;
  const auto add_run = [&](std::uint64_t a, std::uint64_t b) {  // [a, b]
    if (a > b) return;
    count += static_cast<double>(b - a + 1);
    sum += (static_cast<double>(a) + static_cast<double>(b)) *
           static_cast<double>(b - a + 1) / 2;
    if (std::isnan(min)) min = static_cast<double>(a);
    max = static_cast<double>(b);
  };
  if (lo > hi) return {0, nan, nan, nan};
  if (!drop || lost_hi < lo || lost_lo > hi) {
    add_run(lo, hi);
  } else {
    if (lost_lo > lo) add_run(lo, lost_lo - 1);
    if (lost_hi < hi) add_run(lost_hi + 1, hi);
  }
  if (count == 0) return {0, nan, nan, nan};
  return {count, sum, min, max};
}

bool SameCells(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i])))) {
      return false;
    }
  }
  return true;
}

// TSan leg for block summaries: unbounded and range aggregates merge
// summaries while a publisher appends, CompactOnce publishes blocks, and
// one block, corrupted as it lands, is quarantined by whichever scan reads
// it first. Row i has value i, so COUNT/SUM/MIN/MAX pin down which rows an
// answer holds. Every answer must be a consistent prefix of the appends —
// the rows with id below some m between the appends done before the query
// and those begun by its end — and no row may count twice. Only a
// degraded answer may lack the quarantined block's rows.
TEST(ColdTierStress, SummaryAggregatesWhileCompactingAndQuarantining) {
  const std::string dir = FreshDir("coldtier_summary_stress");
  const std::string base = dir + "/t.log";
  constexpr std::uint64_t kRows = 2400;
  constexpr std::uint64_t kCorruptSeq = 6;
  constexpr TimeNs kStep = 10;
  std::atomic<std::uint64_t> lost_lo{0}, lost_hi{0};
  std::atomic<bool> corrupted{false};
  coldtier::ColdTierConfig config;
  config.crash_hook = [&](const char* point, std::uint64_t seq) {
    if (std::string(point) != coldtier::kCrashPostRename ||
        seq != kCorruptSeq) {
      return;
    }
    char name[32];
    std::snprintf(name, sizeof(name), ".%06llu.blk",
                  static_cast<unsigned long long>(seq));
    const std::string path = base + name;
    std::vector<std::uint8_t> image(fs::file_size(path));
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(image.data(), 1, image.size(), f), image.size());
    std::uint32_t rows = 0;
    coldtier::ZoneMap zone;
    ASSERT_TRUE(coldtier::DecodeZoneMap(image.data(), image.size(), &rows,
                                        &zone));
    lost_lo.store(zone.first_id, std::memory_order_relaxed);
    lost_hi.store(zone.last_id, std::memory_order_relaxed);
    corrupted.store(true, std::memory_order_release);
    // A zone-map byte: the block's zone CRC no longer matches.
    std::fseek(f, 20, SEEK_SET);
    std::fputc(image[20] ^ 0xFF, f);
    std::fclose(f);
  };

  Archiver<Sample> archiver(base, SmallSegments(16));
  ColdTier cold(base, config);
  ASSERT_TRUE(cold.Open().ok());
  archiver.AttachColdReader(&cold);
  Broker broker(RealClock::Instance());
  auto created = broker.CreateTopic("t", kLocalNode, 32, &archiver);
  ASSERT_TRUE(created.ok());
  TelemetryStream* stream = *created;
  aqe::Executor executor(broker);

  std::atomic<std::uint64_t> begun{0}, done{0};
  std::atomic<bool> finished{false};
  std::thread publisher([&] {
    for (std::uint64_t i = 0; i < kRows; ++i) {
      const TimeNs ts = 1'000 + static_cast<TimeNs>(i) * kStep;
      begun.store(i + 1, std::memory_order_release);
      stream->Append(ts, Sample{ts, static_cast<double>(i),
                                Provenance::kMeasured});
      done.store(i + 1, std::memory_order_release);
    }
    finished.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!finished.load(std::memory_order_acquire)) {
      if (!cold.CompactOnce(archiver, 2).ok()) break;
      std::this_thread::yield();
    }
  });

  // Checks one answer over ids [lo, hi] against every prefix it may hold.
  std::atomic<std::uint64_t> answers{0}, inconsistent{0};
  const auto check = [&](const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
    const std::uint64_t before = done.load(std::memory_order_acquire);
    auto result = executor.Execute(text);
    const std::uint64_t after = begun.load(std::memory_order_acquire);
    if (!result.ok() || result->rows.size() != 1) {
      inconsistent.fetch_add(1);
      return;
    }
    const std::vector<double>& got = result->rows[0].values;
    const bool may_drop =
        result->degraded && corrupted.load(std::memory_order_acquire);
    const std::uint64_t llo = lost_lo.load(std::memory_order_relaxed);
    const std::uint64_t lhi = lost_hi.load(std::memory_order_relaxed);
    bool consistent = false;
    for (std::uint64_t m = before; m <= after && !consistent; ++m) {
      const std::uint64_t top = std::min(hi, m == 0 ? 0 : m - 1);
      const std::uint64_t bottom = m == 0 ? 1 : lo;  // m == 0: no rows
      for (bool drop : {false, true}) {
        if (drop && !may_drop) continue;
        consistent = consistent ||
                     SameCells(got, IdRangeAggregates(bottom, top, drop, llo,
                                                      lhi));
      }
    }
    answers.fetch_add(1);
    if (!consistent) {
      inconsistent.fetch_add(1);
      ADD_FAILURE() << text << ": COUNT " << got[0] << " SUM " << got[1]
                    << " MIN " << got[2] << " MAX " << got[3]
                    << " degraded=" << result->degraded << " appends "
                    << before << ".." << after;
    }
  };
  std::thread unbounded([&] {
    while (!finished.load(std::memory_order_acquire)) {
      check("SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t",
            0, kRows);
    }
  });
  std::thread ranged([&] {
    Rng rng(0x5A11u);
    while (!finished.load(std::memory_order_acquire)) {
      const std::uint64_t a = rng.NextBounded(kRows);
      const std::uint64_t b = a + rng.NextBounded(kRows - a);
      check("SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t "
            "WHERE Timestamp BETWEEN " +
                std::to_string(1'000 + static_cast<TimeNs>(a) * kStep) +
                " AND " +
                std::to_string(1'000 + static_cast<TimeNs>(b) * kStep),
            a, b);
    }
  });
  publisher.join();
  compactor.join();
  unbounded.join();
  ranged.join();
  EXPECT_EQ(inconsistent.load(), 0u) << "of " << answers.load();

  // Settled: compact the rest, and read twice; the second read merges
  // every live block from its summary, and the answer lacks exactly the
  // quarantined block's rows, degraded.
  ASSERT_TRUE(cold.CompactOnce(archiver).ok());
  ASSERT_TRUE(corrupted.load());
  const std::string all =
      "SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t";
  ASSERT_TRUE(executor.Execute(all).ok());
  auto profile = executor.Explain(all, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->vertices.at(0).cold_blocks_summarized, cold.BlockCount());
  EXPECT_TRUE(profile->degraded);
  EXPECT_EQ(cold.quarantined_blocks(), 1u);
  auto result = executor.Execute(all);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  EXPECT_TRUE(SameCells(result->rows.at(0).values,
                        IdRangeAggregates(0, kRows - 1, true, lost_lo.load(),
                                          lost_hi.load())));
  fs::remove_all(dir);
}

// TSan leg for WAL segment summaries: aggregates race a publisher whose
// appends rotate small segments, readers that extend the segments'
// summaries (the aggregates themselves, and a ReadRange that offers no
// summary), and a compactor whose CompactOnce drops segments
// (DropSegmentsThrough) while queries still hold their summaries. Row i
// has value i, so every answer must be a prefix of the appends: COUNT(*)
// exact, no row lost or counted twice across the ring, WAL and cold caps.
TEST(WalSummaryStress, AggregatesRaceAppendsRotationAndCompaction) {
  const std::string dir = FreshDir("wal_summary_stress");
  const std::string base = dir + "/t.log";
  constexpr std::uint64_t kRows = 1600;
  constexpr TimeNs kStep = 10;
  Archiver<Sample> archiver(base, SmallSegments(16));
  ColdTier cold(base);
  ASSERT_TRUE(cold.Open().ok());
  archiver.AttachColdReader(&cold);
  Broker broker(RealClock::Instance());
  auto created = broker.CreateTopic("t", kLocalNode, 32, &archiver);
  ASSERT_TRUE(created.ok());
  TelemetryStream* stream = *created;
  aqe::Executor executor(broker);
  const obs::Counter merged = GlobalTelemetry().archive_segments_summarized;
  const std::uint64_t merged_before = merged.Value();

  std::atomic<std::uint64_t> begun{0}, done{0};
  std::atomic<bool> finished{false};
  std::thread publisher([&] {
    for (std::uint64_t i = 0; i < kRows; ++i) {
      const TimeNs ts = 1'000 + static_cast<TimeNs>(i) * kStep;
      begun.store(i + 1, std::memory_order_release);
      stream->Append(ts, Sample{ts, static_cast<double>(i),
                                Provenance::kMeasured});
      done.store(i + 1, std::memory_order_release);
    }
    finished.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!finished.load(std::memory_order_acquire)) {
      if (!cold.CompactOnce(archiver, 1).ok()) break;
      std::this_thread::yield();
    }
  });
  std::atomic<std::uint64_t> wal_reads{0}, bad_wal_reads{0};
  std::thread wal_reader([&] {
    std::vector<Archiver<Sample>::Record> records;
    while (!finished.load(std::memory_order_acquire)) {
      if (!archiver.ReadRange(0, INT64_MAX, records).ok()) {
        bad_wal_reads.fetch_add(1);
        continue;
      }
      wal_reads.fetch_add(1);
      for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i].id != records[i - 1].id + 1) bad_wal_reads.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Checks one answer over ids [lo, hi] against every prefix it may hold.
  std::atomic<std::uint64_t> answers{0}, inconsistent{0};
  const auto check = [&](const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
    const std::uint64_t before = done.load(std::memory_order_acquire);
    auto result = executor.Execute(text);
    const std::uint64_t after = begun.load(std::memory_order_acquire);
    if (!result.ok() || result->rows.size() != 1 || result->degraded) {
      inconsistent.fetch_add(1);
      ADD_FAILURE() << text << ": failed or degraded";
      return;
    }
    const std::vector<double>& got = result->rows[0].values;
    bool consistent = false;
    for (std::uint64_t m = before; m <= after && !consistent; ++m) {
      const std::uint64_t top = std::min(hi, m == 0 ? 0 : m - 1);
      const std::uint64_t bottom = m == 0 ? 1 : lo;  // m == 0: no rows
      consistent = SameCells(got, IdRangeAggregates(bottom, top, false, 0, 0));
    }
    answers.fetch_add(1);
    if (!consistent) {
      inconsistent.fetch_add(1);
      ADD_FAILURE() << text << ": COUNT " << got[0] << " SUM " << got[1]
                    << " MIN " << got[2] << " MAX " << got[3] << " appends "
                    << before << ".." << after;
    }
  };
  const std::string all =
      "SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t";
  std::thread unbounded([&] {
    while (!finished.load(std::memory_order_acquire)) check(all, 0, kRows);
  });
  std::thread ranged([&] {
    Rng rng(0x5E9u);
    while (!finished.load(std::memory_order_acquire)) {
      const std::uint64_t a = rng.NextBounded(kRows);
      const std::uint64_t b = a + rng.NextBounded(kRows - a);
      check(all + " WHERE Timestamp BETWEEN " +
                std::to_string(1'000 + static_cast<TimeNs>(a) * kStep) +
                " AND " +
                std::to_string(1'000 + static_cast<TimeNs>(b) * kStep),
            a, b);
    }
  });
  publisher.join();
  compactor.join();
  wal_reader.join();
  unbounded.join();
  ranged.join();
  EXPECT_EQ(inconsistent.load(), 0u) << "of " << answers.load();
  EXPECT_GT(answers.load(), 0u);
  EXPECT_EQ(bad_wal_reads.load(), 0u) << "of " << wal_reads.load();
  // The race reached what it is for: answers merged segment summaries.
  EXPECT_GT(merged.Value(), merged_before);

  // Settled: the second read merges every live segment from its summary
  // and reads no record, and the answer holds every row once.
  ASSERT_TRUE(executor.Execute(all).ok());
  auto profile = executor.Explain(all, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  const aqe::VertexProfile& vp = profile->vertices.at(0);
  EXPECT_EQ(vp.wal_segments_summarized,
            archiver.SealedSegments().size() + 1);
  EXPECT_EQ(vp.wal_records_read, 0u);
  EXPECT_EQ(vp.rows_matched, kRows);
  auto result = executor.Execute(all);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degraded);
  EXPECT_TRUE(SameCells(result->rows.at(0).values,
                        IdRangeAggregates(0, kRows - 1, false, 0, 0)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apollo
