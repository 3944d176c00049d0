// Three-tier model test for the AQE history path: one topic whose rows
// age out of a small ring into a WAL of small segments and from there
// into cold blocks. Seeded random appends (timestamps non-decreasing, with
// runs of equal timestamps) are interleaved with CompactOnce, and after
// every step random queries must answer exactly what a plain
// vector<(id, ts, value)> answers — sums and `latest` ties bit for bit —
// while EXPLAIN ANALYZE attributes every row to the tier that holds it.
// The degraded tests check that an answer which skipped an unreadable
// tier says so. (Suite names carry "ColdTier" so the tsan name filter
// picks them up.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "aqe/executor.h"
#include "coldtier/cold_tier.h"
#include "coldtier/manifest.h"
#include "common/fault.h"
#include "common/rng.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;
using coldtier::ColdTier;

constexpr TimeNs kMinTs = std::numeric_limits<TimeNs>::min();
constexpr TimeNs kMaxTs = std::numeric_limits<TimeNs>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct ModelRow {
  std::uint64_t id;
  TimeNs ts;
  double value;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Removes its directory after everything declared after it is gone.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(testing::TempDir() + "/" + name + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

WalConfig SegmentsOf(std::size_t records) {
  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize +
      records * (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
  return config;
}

// One topic over all three tiers, plus the model of what it holds.
class ThreeTierTopic {
 public:
  ThreeTierTopic(const std::string& name, std::size_t ring,
                 std::size_t records_per_segment)
      : dir_(name),
        archiver_(dir_.path + "/t.log", SegmentsOf(records_per_segment)),
        cold_(archiver_.path()),
        broker_(RealClock::Instance()),
        executor_(broker_) {
    open_ = archiver_.OpenStatus().ok() && cold_.Open().ok();
    archiver_.AttachColdReader(&cold_);
    auto stream = broker_.CreateTopic("t", kLocalNode, ring, &archiver_);
    if (stream.ok()) stream_ = *stream;
  }

  bool ok() const { return open_ && stream_ != nullptr; }

  void Append(TimeNs ts, double value) {
    const std::uint64_t id =
        stream_->Append(ts, Sample{ts, value, Provenance::kMeasured});
    model_.push_back(ModelRow{id, ts, value});
  }

  void Compact() {
    auto result = cold_.CompactOnce(archiver_);
    ASSERT_TRUE(result.ok()) << result.error().ToString();
  }

  const std::vector<ModelRow>& model() const { return model_; }
  TelemetryStream* stream() { return stream_; }
  Archiver<Sample>& archiver() { return archiver_; }
  ColdTier& cold() { return cold_; }
  aqe::Executor& executor() { return executor_; }

 private:
  TempDir dir_;
  Archiver<Sample> archiver_;
  ColdTier cold_;
  Broker broker_;
  aqe::Executor executor_;
  TelemetryStream* stream_ = nullptr;
  bool open_ = false;
  std::vector<ModelRow> model_;
};

// A random query and the model's answer to it.
struct QuerySpec {
  bool aggregate = true;
  std::optional<std::pair<TimeNs, TimeNs>> between;
  std::optional<double> metric_above;
  enum class Order { kNone, kMetricDesc, kTimestampAsc } order = Order::kNone;
  std::optional<std::uint64_t> limit;

  TimeNs from() const { return between ? between->first : kMinTs; }
  TimeNs to() const { return between ? between->second : kMaxTs; }

  std::string Text() const {
    std::string text =
        aggregate ? "SELECT COUNT(*), SUM(metric), AVG(metric), MIN(metric), "
                    "MAX(metric), MIN(Timestamp), metric FROM t"
                  : "SELECT Timestamp, metric FROM t";
    const char* joiner = " WHERE ";
    if (between) {
      text += joiner + std::string("Timestamp BETWEEN ") +
              std::to_string(between->first) + " AND " +
              std::to_string(between->second);
      joiner = " AND ";
    }
    if (metric_above) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.17g", *metric_above);
      text += joiner + std::string("metric > ") + buf;
    }
    if (order == Order::kMetricDesc) text += " ORDER BY metric DESC";
    if (order == Order::kTimestampAsc) text += " ORDER BY Timestamp";
    if (limit) text += " LIMIT " + std::to_string(*limit);
    return text;
  }

  bool Matches(const ModelRow& row) const {
    if (row.ts < from() || row.ts > to()) return false;
    return !metric_above || row.value > *metric_above;
  }

  // What the executor must return, computed by plain loops in id order.
  std::vector<std::vector<double>> Answer(
      const std::vector<ModelRow>& model) const {
    if (aggregate) {
      std::size_t n = 0;
      double sum = 0.0, min = kInf, max = -kInf, min_ts = kInf;
      const ModelRow* latest = nullptr;
      for (const ModelRow& row : model) {
        if (!Matches(row)) continue;
        ++n;
        if (latest == nullptr || row.ts >= latest->ts) latest = &row;
        sum += row.value;
        min = std::min(min, row.value);
        max = std::max(max, row.value);
        min_ts = std::min(min_ts, static_cast<double>(row.ts));
      }
      if (n == 0) return {{0.0, kNan, kNan, kNan, kNan, kNan, kNan}};
      return {{static_cast<double>(n), sum, sum / static_cast<double>(n), min,
               max, min_ts, latest->value}};
    }
    std::vector<std::vector<double>> rows;
    std::vector<double> keys;
    for (const ModelRow& row : model) {
      if (!Matches(row)) continue;
      if (order == Order::kNone && limit && rows.size() >= *limit) break;
      rows.push_back({static_cast<double>(row.ts), row.value});
      keys.push_back(order == Order::kMetricDesc ? row.value
                                                 : static_cast<double>(row.ts));
    }
    if (order == Order::kNone) return rows;
    std::vector<std::size_t> idx(rows.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const bool descending = order == Order::kMetricDesc;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return descending ? keys[a] > keys[b]
                                         : keys[a] < keys[b];
                     });
    if (limit && idx.size() > *limit) idx.resize(*limit);
    std::vector<std::vector<double>> out;
    for (std::size_t i : idx) out.push_back(rows[i]);
    return out;
  }
};

QuerySpec RandomQuery(Rng& rng, const std::vector<ModelRow>& model) {
  QuerySpec q;
  q.aggregate = rng.Bernoulli(0.6);
  const TimeNs first = model.front().ts;
  const TimeNs last = model.back().ts;
  // Unbounded, or a range that may start before the history and end after
  // it, on row timestamps or between them.
  if (rng.Bernoulli(0.6)) {
    const TimeNs span = last - first + 200;
    TimeNs a = first - 100 + static_cast<TimeNs>(rng.NextBounded(span));
    TimeNs b = first - 100 + static_cast<TimeNs>(rng.NextBounded(span));
    if (rng.Bernoulli(0.5)) a = model[rng.NextBounded(model.size())].ts;
    if (rng.Bernoulli(0.5)) b = model[rng.NextBounded(model.size())].ts;
    q.between = std::make_pair(std::min(a, b), std::max(a, b));
  }
  if (rng.Bernoulli(0.3)) {
    q.metric_above = model[rng.NextBounded(model.size())].value;
  }
  if (!q.aggregate) {
    const double pick = rng.Uniform(0.0, 1.0);
    if (pick < 0.35) {
      q.order = QuerySpec::Order::kMetricDesc;
      q.limit = 1 + rng.NextBounded(20);
    } else if (pick < 0.5) {
      q.order = QuerySpec::Order::kTimestampAsc;
      q.limit = 1 + rng.NextBounded(200);
    } else if (pick < 0.85) {
      q.limit = 1 + rng.NextBounded(300);  // LIMIT alone
    }
  }
  return q;
}

// Values a monitoring metric takes: integers, repeats, reals, signed zero.
double RandomValue(Rng& rng, double prev) {
  const double pick = rng.Uniform(0.0, 1.0);
  if (pick < 0.2) return prev;
  if (pick < 0.5) return static_cast<double>(rng.NextBounded(1000));
  if (pick < 0.55) return -0.0;
  if (pick < 0.6) return static_cast<double>(rng.NextBounded(1u << 20)) * 1e6;
  return rng.Uniform(-1e6, 1e6);
}

// Rows each tier holds, read from the tiers themselves.
struct TierRows {
  std::vector<StreamEntry<Sample>> ring;
  std::vector<Archiver<Sample>::Record> wal;
  std::vector<std::uint64_t> cold_ids;
  std::vector<coldtier::ManifestEntry> blocks;
};

TierRows ReadTiers(ThreeTierTopic& topic) {
  TierRows tiers;
  tiers.ring = topic.stream()->RangeByTime(kMinTs, kMaxTs);
  EXPECT_TRUE(topic.archiver().ReadRange(kMinTs, kMaxTs, tiers.wal).ok());
  EXPECT_TRUE(topic.cold()
                  .ScanRange(kMinTs, kMaxTs,
                             [&](std::uint64_t id, TimeNs, const Sample&) {
                               tiers.cold_ids.push_back(id);
                             },
                             nullptr)
                  .ok());
  auto manifest = coldtier::ReadManifest(topic.cold().ManifestPath());
  EXPECT_TRUE(manifest.ok());
  if (manifest.ok()) tiers.blocks = manifest->entries;
  return tiers;
}

void CheckQuery(ThreeTierTopic& topic, const TierRows& tiers,
                const QuerySpec& q) {
  const std::string text = q.Text();
  SCOPED_TRACE(text);
  auto result = topic.executor().Execute(text);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_FALSE(result->degraded);
  const auto expected = q.Answer(topic.model());
  ASSERT_EQ(result->rows.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(result->rows[r].values.size(), expected[r].size());
    for (std::size_t c = 0; c < expected[r].size(); ++c) {
      EXPECT_TRUE(SameBits(result->rows[r].values[c], expected[r][c]))
          << "row " << r << " col " << c << ": got "
          << result->rows[r].values[c] << ", want " << expected[r][c];
    }
  }

  // EXPLAIN ANALYZE attributes each row in range to the tier holding it:
  // every in-range WAL row and cold row, and the blocks whose zone maps
  // reach the cold tier's share of the range.
  auto profile = topic.executor().Explain(text, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->vertices.size(), 1u);
  const aqe::VertexProfile& vp = profile->vertices[0];
  const auto in_range = [&](TimeNs ts) {
    return ts >= q.from() && ts <= q.to();
  };
  std::uint64_t ring_rows = 0, wal_rows = 0, cold_rows = 0;
  std::optional<TimeNs> ring_first, wal_first;
  for (const auto& entry : tiers.ring) {
    if (!in_range(entry.timestamp)) continue;
    ++ring_rows;
    if (!ring_first) ring_first = entry.timestamp;
  }
  for (const auto& rec : tiers.wal) {
    if (!in_range(rec.timestamp)) continue;
    ++wal_rows;
    if (!wal_first) wal_first = rec.timestamp;
  }
  for (const ModelRow& row : topic.model()) {
    if (in_range(row.ts) &&
        std::binary_search(tiers.cold_ids.begin(), tiers.cold_ids.end(),
                           row.id)) {
      ++cold_rows;
    }
  }
  EXPECT_EQ(vp.archive_rows, wal_rows);
  EXPECT_EQ(vp.cold_rows, cold_rows);
  std::uint64_t in_range_rows = 0;
  for (const ModelRow& row : topic.model()) in_range_rows += in_range(row.ts);
  EXPECT_EQ(ring_rows + wal_rows + cold_rows, in_range_rows);
  // The cold scan reaches from `from` to the first in-range WAL row, or to
  // the first in-range ring row when no WAL row is in range.
  TimeNs cold_to = q.to();
  if (wal_first) {
    cold_to = *wal_first;
  } else if (ring_first) {
    cold_to = *ring_first;
  }
  std::uint64_t blocks = 0;
  for (const auto& block : tiers.blocks) {
    blocks += block.zone.max_ts >= q.from() && block.zone.min_ts <= cold_to;
  }
  EXPECT_EQ(vp.cold_blocks_scanned, blocks);
}

void RunModel(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr std::size_t kRing = 24;
  ThreeTierTopic topic("coldtier_model_" + std::to_string(seed), kRing,
                       /*records_per_segment=*/40);
  ASSERT_TRUE(topic.ok());
  Rng rng(seed);
  TimeNs ts = 1'000'000'000;
  double value = 0.0;
  auto append = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      // Non-decreasing timestamps: one in four repeats the previous one,
      // so runs of equal timestamps straddle every tier boundary.
      if (!rng.Bernoulli(0.25)) {
        ts += 1 + static_cast<TimeNs>(rng.NextBounded(2000));
      }
      value = RandomValue(rng, value);
      topic.Append(ts, value);
    }
  };
  append(kRing + 1);  // history from the first query on
  for (int step = 0; step < 30; ++step) {
    append(1 + rng.NextBounded(3 * kRing));
    if (rng.Bernoulli(0.5)) {
      topic.Compact();
      if (testing::Test::HasFatalFailure()) return;
    }
    const TierRows tiers = ReadTiers(topic);
    ASSERT_EQ(tiers.ring.size() + tiers.wal.size() + tiers.cold_ids.size(),
              topic.model().size());
    for (int k = 0; k < 8; ++k) {
      CheckQuery(topic, tiers, RandomQuery(rng, topic.model()));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(topic.cold().BlockCount(), 0u);
}

TEST(ColdTierModel, RandomAppendsCompactionsAndQueriesMatchModel) {
  for (std::uint64_t seed : {0x3713A1u, 0x3713A2u, 0x3713A3u}) {
    RunModel(seed);
    if (HasFatalFailure()) return;
  }
}

// A topic with 5 cold blocks, an active WAL segment and a ring.
class DegradedTopic : public ThreeTierTopic {
 public:
  static constexpr std::size_t kRows = 420;
  DegradedTopic() : ThreeTierTopic("coldtier_degraded", 16, 80) {
    if (!ok()) return;
    for (std::size_t i = 0; i < kRows; ++i) {
      const TimeNs ts = 1'000 + static_cast<TimeNs>(i) * 10;
      Append(ts, static_cast<double>(i));
    }
  }

  double Count(bool* degraded) {
    auto result = executor().Execute("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return -1;
    *degraded = result->degraded;
    EXPECT_EQ(result->rows.size(), 1u);
    for (const aqe::ResultRow& row : result->rows) {
      EXPECT_EQ(row.degraded, result->degraded);
    }
    return result->rows.at(0).values.at(0);
  }
};

TEST(ColdTierDegraded, SkippedColdBlockMarksAnswerDegraded) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  topic.Compact();
  ASSERT_EQ(topic.cold().BlockCount(), 5u);

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kBlockRead;
  spec.fire_on_hits = {1};
  injector.Arm(spec);
  topic.cold().AttachFaultInjector(&injector);

  bool degraded = false;
  const double partial = topic.Count(&degraded);
  EXPECT_LT(partial, static_cast<double>(DegradedTopic::kRows));
  EXPECT_TRUE(degraded) << "an answer missing a cold block is not degraded";
  auto profile = topic.executor().Explain("SELECT COUNT(*) FROM t", true);
  ASSERT_TRUE(profile.ok());
  EXPECT_FALSE(profile->vertices.at(0).degraded);  // the fault fired once

  // Once every block reads again the full answer is not degraded.
  EXPECT_DOUBLE_EQ(topic.Count(&degraded),
                   static_cast<double>(DegradedTopic::kRows));
  EXPECT_FALSE(degraded);
  topic.cold().AttachFaultInjector(nullptr);
}

TEST(ColdTierDegraded, QuarantinedBlockMarksAnswerDegraded) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  topic.Compact();
  const std::string victim = topic.cold().BlockPaths().at(2);
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
  }
  auto profile = topic.executor().Explain("SELECT COUNT(*) FROM t", true);
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->degraded);
  EXPECT_TRUE(profile->vertices.at(0).degraded);
  EXPECT_EQ(topic.cold().quarantined_blocks(), 1u);
}

TEST(ColdTierDegraded, UnreadableWalMarksAnswerDegraded) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  bool degraded = true;
  ASSERT_DOUBLE_EQ(topic.Count(&degraded),
                   static_cast<double>(DegradedTopic::kRows));
  ASSERT_FALSE(degraded);

  // Cut the active segment's last record in half: the re-read finds fewer
  // records than the log holds, so the WAL read fails.
  const std::string active = topic.archiver().ActiveSegmentPath();
  const auto size = fs::file_size(active);
  fs::resize_file(active, size - 20);
  const double partial = topic.Count(&degraded);
  EXPECT_LT(partial, static_cast<double>(DegradedTopic::kRows));
  EXPECT_TRUE(degraded) << "an answer missing the WAL is not degraded";
}

}  // namespace
}  // namespace apollo
