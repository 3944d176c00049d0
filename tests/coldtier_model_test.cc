// Three-tier model test for the AQE history path: one topic whose rows
// age out of a small ring into a WAL of small segments and from there
// into cold blocks. Seeded random appends (timestamps non-decreasing, with
// runs of equal timestamps) are interleaved with CompactOnce, and after
// every step random queries must answer exactly what a plain
// vector<(id, ts, value)> answers — the exact sum rounded once, MIN/MAX
// with -0.0 below +0.0, and `latest` ties, bit for bit — while EXPLAIN
// ANALYZE attributes every row to the tier that holds it and shows that
// every cold block and WAL segment a qualifying aggregate may take from
// its summary was taken from it. A sibling run feeds NaN, ±inf,
// subnormals, ±0.0 and values that cancel. The degraded tests check that
// an answer which skipped an unreadable tier, or misses rows a tier lost,
// says so. (Suite names carry "ColdTier" so the tsan name filter picks
// them up.)
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
#include <utility>
#include <vector>

#include <unistd.h>

#include "aqe/executor.h"
#include "coldtier/cold_tier.h"
#include "coldtier/manifest.h"
#include "common/fault.h"
#include "common/rng.h"
#include "cq/cq_engine.h"
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

// The exact sum of finite values, rounded once to nearest-even: Shewchuk's
// non-overlapping partials (J. R. Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997),
// rounded the way Python's math.fsum rounds them. A different method from
// the fixed-point digits of src/common/exact_sum.h, so each checks the
// other. Exact while no partial overflows, which holds for every value the
// runs below append. A zero sum is +0.0.
double ShewchukSum(const std::vector<double>& values) {
  std::vector<double> partials;
  for (double x : values) {
    std::size_t i = 0;
    for (std::size_t j = 0; j < partials.size(); ++j) {
      double y = partials[j];
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[i++] = lo;
      x = hi;
    }
    partials.resize(i);
    if (x != 0.0) partials.push_back(x);
  }
  double hi = 0.0;
  std::size_t n = partials.size();
  if (n > 0) {
    hi = partials[--n];
    double lo = 0.0;
    while (n > 0) {
      const double x = hi;
      const double y = partials[--n];
      hi = x + y;
      lo = y - (hi - x);
      if (lo != 0.0) break;
    }
    // Half-even rounding across partials: a remainder of the same sign as
    // the next partial breaks a tie away from `hi`.
    if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                  (lo > 0.0 && partials[n - 1] > 0.0))) {
      const double y = lo * 2.0;
      const double x = hi + y;
      if (y == x - hi) hi = x;
    }
  }
  return hi == 0.0 ? 0.0 : hi;
}

// SUM as the model defines it: NaN over a NaN or both infinities, an
// infinity over infinities of one sign, else the exact sum of the rest.
double ModelSum(const std::vector<double>& values) {
  bool nan = false, pos_inf = false, neg_inf = false;
  std::vector<double> finite;
  for (double v : values) {
    if (std::isnan(v)) {
      nan = true;
    } else if (std::isinf(v)) {
      (v > 0 ? pos_inf : neg_inf) = true;
    } else {
      finite.push_back(v);
    }
  }
  if (nan || (pos_inf && neg_inf)) return kNan;
  if (pos_inf) return kInf;
  if (neg_inf) return -kInf;
  return ShewchukSum(finite);
}

// MIN/MAX's order: numeric, with -0.0 below +0.0.
bool ModelBelow(double a, double b) {
  if (a == 0.0 && b == 0.0) return std::signbit(a) && !std::signbit(b);
  return a < b;
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
  Broker& broker() { return broker_; }
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
      // Signed, so that the lexer reads "+nan" and "+inf" as numbers.
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%+.17g", *metric_above);
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
      std::vector<double> values;
      double min = kNan, max = kNan, min_ts = kInf;
      const ModelRow* latest = nullptr;
      for (const ModelRow& row : model) {
        if (!Matches(row)) continue;
        values.push_back(row.value);
        if (latest == nullptr || row.ts >= latest->ts) latest = &row;
        if (!std::isnan(row.value)) {
          if (std::isnan(min) || ModelBelow(row.value, min)) min = row.value;
          if (std::isnan(max) || ModelBelow(max, row.value)) max = row.value;
        }
        min_ts = std::min(min_ts, static_cast<double>(row.ts));
      }
      const std::size_t n = values.size();
      if (n == 0) return {{0.0, kNan, kNan, kNan, kNan, kNan, kNan}};
      const double sum = ModelSum(values);
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
    // NaN keys sort last in both directions.
    const bool descending = order == Order::kMetricDesc;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (std::isnan(keys[a]) || std::isnan(keys[b])) {
                         return !std::isnan(keys[a]);
                       }
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

// Values any wire client may send: NaN, ±inf, subnormals, both zeros, and
// ±1e17 and ±1e300 beside small reals, so that sums cancel to what a
// rolling double sum loses. Non-finite values are rare enough that most
// ranges hold none.
double HostileValue(Rng& rng, double prev) {
  const double pick = rng.Uniform(0.0, 1.0);
  const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  if (pick < 0.004) return kNan;
  if (pick < 0.008) return kInf;
  if (pick < 0.012) return -kInf;
  if (pick < 0.15) return prev;
  if (pick < 0.25) return sign * 0.0;
  if (pick < 0.35) {
    // k * 2^-1074: a subnormal, exact.
    return sign * static_cast<double>(1 + rng.NextBounded(1u << 20)) *
           std::numeric_limits<double>::denorm_min();
  }
  if (pick < 0.45) return sign * 1e17;
  if (pick < 0.5) return sign * 1e300;
  if (pick < 0.8) return sign * 0.1 * static_cast<double>(1 + rng.NextBounded(9));
  return rng.Uniform(-1e6, 1e6);
}

// Rows each tier holds, read from the tiers themselves.
struct TierRows {
  std::vector<StreamEntry<Sample>> ring;
  std::vector<Archiver<Sample>::Record> wal;
  std::vector<std::uint64_t> segment_records;  // per live WAL segment
  std::vector<std::uint64_t> cold_ids;
  std::vector<coldtier::ManifestEntry> blocks;
};

TierRows ReadTiers(ThreeTierTopic& topic) {
  TierRows tiers;
  tiers.ring = topic.stream()->RangeByTime(kMinTs, kMaxTs);
  EXPECT_TRUE(topic.archiver().ReadRange(kMinTs, kMaxTs, tiers.wal).ok());
  std::uint64_t sealed = 0;
  for (const auto& segment : topic.archiver().SealedSegments()) {
    tiers.segment_records.push_back(segment.records);
    sealed += segment.records;
  }
  tiers.segment_records.push_back(tiers.wal.size() - sealed);
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

// What the checked queries of one run exercised.
struct Coverage {
  std::uint64_t blocks_summarized = 0;
  std::uint64_t wal_segments_summarized = 0;
  // Aggregates whose exact SUM is finite and differs from a double sum of
  // the same rows in id order.
  std::uint64_t sums_a_double_sum_misses = 0;
};

void CheckQuery(ThreeTierTopic& topic, const TierRows& tiers,
                const QuerySpec& q, Coverage& coverage) {
  const std::string text = q.Text();
  SCOPED_TRACE(text);
  auto result = topic.executor().Execute(text);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_FALSE(result->degraded);
  const auto expected = q.Answer(topic.model());
  if (q.aggregate && std::isfinite(expected[0][1])) {
    double naive = 0.0;
    for (const ModelRow& row : topic.model()) {
      if (q.Matches(row)) naive += row.value;
    }
    coverage.sums_a_double_sum_misses += !SameBits(naive, expected[0][1]);
  }
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

  // ReadTiers has read every block, so each has a summary. An aggregate
  // whose WHERE tests only Timestamp takes from its summary every block
  // that lies wholly inside the range and below the warmer tiers' oldest
  // row (timestamp, then id), and decodes the rest.
  std::uint64_t summarized = 0;
  if (q.aggregate && !q.metric_above) {
    TimeNs cap_ts = q.to();
    std::uint64_t cap_id = UINT64_MAX;
    const auto first_in_range = [&](const auto& rows) {
      for (const auto& row : rows) {
        if (!in_range(row.timestamp)) continue;
        cap_ts = row.timestamp;
        cap_id = row.id;
        return true;
      }
      return false;
    };
    if (!first_in_range(tiers.wal)) first_in_range(tiers.ring);
    for (const auto& block : tiers.blocks) {
      const bool inside =
          block.zone.min_ts >= q.from() && block.zone.max_ts <= q.to();
      const bool below =
          block.zone.max_ts < cap_ts ||
          (block.zone.max_ts == cap_ts && block.zone.last_id < cap_id);
      summarized += inside && below;
    }
  }
  EXPECT_EQ(vp.cold_blocks_summarized, summarized);
  coverage.blocks_summarized += vp.cold_blocks_summarized;

  // ReadTiers has also read every WAL record, so each live segment's
  // summary covers all of its records. The WAL read reaches from `from` to
  // the first in-range ring row (or `to`), and skips a segment whose
  // timestamps miss that range. A qualifying aggregate takes from its
  // summary every other segment that lies wholly inside the range and
  // below that ring row (timestamp, then id), and reads the rest.
  TimeNs wal_to = q.to();
  std::uint64_t wal_to_id = UINT64_MAX;
  for (const auto& entry : tiers.ring) {
    if (!in_range(entry.timestamp)) continue;
    wal_to = entry.timestamp;
    wal_to_id = entry.id;
    break;
  }
  std::uint64_t segments_summarized = 0, segments_pruned = 0;
  if (!tiers.wal.empty() && q.from() <= wal_to) {
    std::size_t at = 0;
    for (const std::uint64_t records : tiers.segment_records) {
      if (records == 0) continue;
      TimeNs min_ts = kMaxTs, max_ts = kMinTs;
      for (std::size_t i = at; i < at + records; ++i) {
        min_ts = std::min(min_ts, tiers.wal[i].timestamp);
        max_ts = std::max(max_ts, tiers.wal[i].timestamp);
      }
      const std::uint64_t last_id = tiers.wal[at + records - 1].id;
      at += records;
      if (max_ts < q.from() || min_ts > wal_to) {
        ++segments_pruned;
        continue;
      }
      const bool below =
          max_ts < wal_to || (max_ts == wal_to && last_id < wal_to_id);
      segments_summarized += q.aggregate && !q.metric_above &&
                             min_ts >= q.from() && max_ts <= q.to() && below;
    }
  }
  EXPECT_EQ(vp.wal_segments_summarized, segments_summarized);
  EXPECT_EQ(vp.wal_segments_pruned, segments_pruned);
  coverage.wal_segments_summarized += vp.wal_segments_summarized;
}

void RunModel(std::uint64_t seed,
              double (*next_value)(Rng& rng, double prev) = RandomValue) {
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
      value = next_value(rng, value);
      topic.Append(ts, value);
    }
  };
  append(kRing + 1);  // history from the first query on
  Coverage coverage;
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
      CheckQuery(topic, tiers, RandomQuery(rng, topic.model()), coverage);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(topic.cold().BlockCount(), 0u);
  // The run reached what it is for: blocks and WAL segments merged from
  // their summaries, and sums that rounding in id order gets wrong.
  EXPECT_GT(coverage.blocks_summarized, 0u);
  EXPECT_GT(coverage.wal_segments_summarized, 0u);
  EXPECT_GT(coverage.sums_a_double_sum_misses, 0u);
}

TEST(ColdTierModel, RandomAppendsCompactionsAndQueriesMatchModel) {
  for (std::uint64_t seed : {0x3713A1u, 0x3713A2u, 0x3713A3u}) {
    RunModel(seed);
    if (HasFatalFailure()) return;
  }
}

// Every cell bit for bit over NaN, ±inf, subnormals, ±0.0 and cancelling
// magnitudes: the exact sum does not depend on which rows sit in which
// tier or block, or on whether a block was merged from its summary.
TEST(ColdTierModel, HostileValuesMatchModelBitForBit) {
  for (std::uint64_t seed : {0x5EED01u, 0x5EED02u, 0x5EED03u}) {
    RunModel(seed, HostileValue);
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

  double Count(bool* degraded,
               const std::string& query = "SELECT COUNT(*) FROM t") {
    auto result = executor().Execute(query);
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

// A sealed segment cut short after a read summarized it: its file no
// longer holds the records counted in it, so every later answer over the
// history misses the WAL and says so, even one its summary could serve.
TEST(ColdTierDegraded, ShortSealedSegmentMarksLaterAnswersDegraded) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  bool degraded = true;
  ASSERT_DOUBLE_EQ(topic.Count(&degraded),
                   static_cast<double>(DegradedTopic::kRows));
  ASSERT_FALSE(degraded);
  const auto sealed = topic.archiver().SealedSegments();
  ASSERT_EQ(sealed.size(), 5u);
  fs::resize_file(sealed[2].path, fs::file_size(sealed[2].path) - 20);
  for (const std::string query :
       {"SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t WHERE metric >= 0"}) {
    SCOPED_TRACE(query);
    EXPECT_LT(topic.Count(&degraded, query),
              static_cast<double>(DegradedTopic::kRows));
    EXPECT_TRUE(degraded) << "an answer missing the WAL is not degraded";
  }
}

// A segment file removed after a read summarized it, the active segment
// or a sealed one: every read opens each segment by its path, so both
// fail the WAL read and the answer says it is missing rows.
TEST(ColdTierDegraded, RemovedSegmentFileMarksAnswerDegraded) {
  for (const bool active : {true, false}) {
    SCOPED_TRACE(active ? "active segment" : "sealed segment");
    DegradedTopic topic;
    ASSERT_TRUE(topic.ok());
    bool degraded = true;
    ASSERT_DOUBLE_EQ(topic.Count(&degraded),
                     static_cast<double>(DegradedTopic::kRows));
    ASSERT_FALSE(degraded);
    fs::remove(active ? topic.archiver().ActiveSegmentPath()
                      : topic.archiver().SealedSegments().at(2).path);
    EXPECT_LT(topic.Count(&degraded),
              static_cast<double>(DegradedTopic::kRows));
    EXPECT_TRUE(degraded) << "an answer missing the WAL is not degraded";
  }
}

// A byte flipped inside a summarized prefix. A qualifying aggregate keeps
// answering from the summary without reading the record, as one does for
// a summarized cold block; every read that reads the record again finds
// the damage: ReadRange fails, a non-qualifying aggregate is degraded, and
// a fresh archiver on the same files truncates the segment there.
TEST(ColdTierDegraded, FlippedByteInASummarizedPrefixIsFoundByItsNextRead) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  bool degraded = true;
  ASSERT_DOUBLE_EQ(topic.Count(&degraded),
                   static_cast<double>(DegradedTopic::kRows));
  ASSERT_FALSE(degraded);
  const auto sealed = topic.archiver().SealedSegments();
  ASSERT_EQ(sealed.size(), 5u);
  constexpr std::size_t kFrame =
      wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);
  {
    // The value of the segment's record 10.
    std::FILE* f = std::fopen(sealed[2].path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long at = static_cast<long>(wal::kHeaderSize + 10 * kFrame +
                                      wal::kFrameOverhead + 24);
    std::fseek(f, at, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }

  const std::string qualifying = "SELECT COUNT(*), SUM(metric) FROM t";
  EXPECT_DOUBLE_EQ(topic.Count(&degraded, qualifying),
                   static_cast<double>(DegradedTopic::kRows));
  EXPECT_FALSE(degraded);
  auto profile = topic.executor().Explain(qualifying, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->vertices.at(0).wal_segments_summarized, 6u);
  EXPECT_EQ(profile->vertices.at(0).wal_records_read, 0u);

  std::vector<Archiver<Sample>::Record> records;
  EXPECT_EQ(topic.archiver().ReadRange(kMinTs, kMaxTs, records).code(),
            ErrorCode::kIoError);
  EXPECT_TRUE(records.empty());

  EXPECT_LT(topic.Count(&degraded, "SELECT COUNT(*) FROM t WHERE metric >= 0"),
            static_cast<double>(DegradedTopic::kRows));
  EXPECT_TRUE(degraded);

  Archiver<Sample> fresh(topic.archiver().path(), SegmentsOf(80));
  ASSERT_TRUE(fresh.OpenStatus().ok());
  EXPECT_EQ(fresh.RecoveryStats().corrupt_segments, 1u);
  EXPECT_EQ(fresh.RecoveryStats().bytes_truncated, 70 * kFrame);
  EXPECT_EQ(fresh.Count(), topic.archiver().Count() - 70);
}

// A sealed segment damaged on disk before compaction reaches it: a
// flipped payload byte, a torn last record, everything after its header
// cut away, or a damaged header. The next pass does what the archiver's
// open would: it cuts the segment to its valid prefix (the records before
// the damage) or quarantines it, counts the records lost in Failures(),
// and compacts the prefix and every later segment. Every later answer
// counts the surviving rows and says it misses some.
TEST(ColdTierDegraded, DamagedSealedSegmentIsCutToItsValidPrefix) {
  constexpr std::size_t kFrame =
      wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);
  enum class Damage {
    kFlippedPayloadByte,
    kTornLastRecord,
    kHeaderOnly,
    kBadHeader
  };
  struct Case {
    Damage damage;
    std::uint64_t kept;  // of the victim's 80 records
  };
  for (const Case c : {Case{Damage::kFlippedPayloadByte, 5},
                       Case{Damage::kTornLastRecord, 79},
                       Case{Damage::kHeaderOnly, 0},
                       Case{Damage::kBadHeader, 0}}) {
    SCOPED_TRACE(static_cast<int>(c.damage));
    DegradedTopic topic;
    ASSERT_TRUE(topic.ok());
    const auto sealed = topic.archiver().SealedSegments();
    ASSERT_EQ(sealed.size(), 5u);
    const std::string victim = sealed[1].path;
    const auto flip = [&victim](long at) {
      std::FILE* f = std::fopen(victim.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      std::fseek(f, at, SEEK_SET);
      const int byte = std::fgetc(f);
      std::fseek(f, at, SEEK_SET);
      std::fputc(byte ^ 0x40, f);
      std::fclose(f);
    };
    switch (c.damage) {
      case Damage::kFlippedPayloadByte:
        // The value of the segment's record 5.
        flip(static_cast<long>(wal::kHeaderSize + 5 * kFrame +
                               wal::kFrameOverhead + 24));
        break;
      case Damage::kTornLastRecord:
        fs::resize_file(victim, fs::file_size(victim) - kFrame / 2);
        break;
      case Damage::kHeaderOnly:
        fs::resize_file(victim, wal::kHeaderSize);
        break;
      case Damage::kBadHeader:
        flip(8);  // the payload size, under the header's CRC
        break;
    }
    bool degraded = false;
    const std::string query =
        "SELECT COUNT(*) FROM t WHERE timestamp BETWEEN 0 AND 100000";
    const double before = topic.Count(&degraded, query);
    EXPECT_LT(before, static_cast<double>(DegradedTopic::kRows));
    ASSERT_TRUE(degraded);
    ASSERT_EQ(topic.archiver().Failures(), 0u);

    auto compacted = topic.cold().CompactOnce(topic.archiver());
    ASSERT_TRUE(compacted.ok()) << compacted.error().ToString();
    const std::uint64_t lost = 80 - c.kept;
    EXPECT_EQ(compacted->segments_compacted, 5u);
    EXPECT_EQ(compacted->blocks_written, c.kept > 0 ? 5u : 4u);
    EXPECT_EQ(compacted->rows_compacted, 400 - lost);
    EXPECT_EQ(topic.cold().ColdRowCount(), 400 - lost);
    EXPECT_TRUE(topic.archiver().SealedSegments().empty());
    EXPECT_EQ(topic.archiver().Failures(), lost);
    EXPECT_EQ(fs::exists(victim + ".corrupt"),
              c.damage == Damage::kBadHeader);
    const double surviving =
        static_cast<double>(DegradedTopic::kRows - lost);
    for (const std::string& q :
         {query, std::string("SELECT COUNT(*) FROM t"),
          std::string("SELECT COUNT(*) FROM t WHERE metric >= 0")}) {
      SCOPED_TRACE(q);
      EXPECT_DOUBLE_EQ(topic.Count(&degraded, q), surviving);
      EXPECT_TRUE(degraded) << "compaction lost rows without a trace";
    }
    // The next pass has nothing left to compact and fails nothing.
    compacted = topic.cold().CompactOnce(topic.archiver());
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(compacted->segments_compacted, 0u);
  }
}

// A sealed segment whose records a read has already summarized, then
// damaged: cutting it drops the summary, which counted records it no
// longer holds, so even an aggregate the summary could serve counts only
// the records left and says rows are missing.
TEST(ColdTierDegraded, RecoveredSealedSegmentDropsItsSummary) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  const std::string qualifying = "SELECT COUNT(*), SUM(metric) FROM t";
  bool degraded = true;
  ASSERT_DOUBLE_EQ(topic.Count(&degraded, qualifying),
                   static_cast<double>(DegradedTopic::kRows));
  ASSERT_FALSE(degraded);
  const auto sealed = topic.archiver().SealedSegments();
  ASSERT_EQ(sealed.size(), 5u);
  constexpr std::size_t kFrame =
      wal::kFrameOverhead + sizeof(Archiver<Sample>::Record);
  fs::resize_file(sealed[2].path, wal::kHeaderSize + 30 * kFrame + 3);

  // The active segment is not sealed.
  auto active = topic.archiver().RecoverSealedSegment(sealed[4].seq + 1);
  ASSERT_FALSE(active.ok());
  EXPECT_EQ(active.error().code(), ErrorCode::kNotFound);
  auto kept = topic.archiver().RecoverSealedSegment(sealed[2].seq);
  ASSERT_TRUE(kept.ok()) << kept.error().ToString();
  EXPECT_EQ(*kept, 30u);
  EXPECT_EQ(fs::file_size(sealed[2].path), wal::kHeaderSize + 30 * kFrame);
  EXPECT_EQ(topic.archiver().Failures(), 50u);
  EXPECT_EQ(topic.archiver().SealedSegments().at(2).records, 30u);

  EXPECT_DOUBLE_EQ(topic.Count(&degraded, qualifying),
                   static_cast<double>(DegradedTopic::kRows - 50));
  EXPECT_TRUE(degraded);
  auto profile = topic.executor().Explain(qualifying, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  // Every segment's summary stands again, the cut one rebuilt from the
  // 30 records its re-read checked.
  EXPECT_EQ(profile->vertices.at(0).wal_segments_summarized, 6u);
  EXPECT_EQ(profile->vertices.at(0).wal_records_read, 0u);
}

// A quarantined block's rows stay missing after the scan that quarantined
// it, so every later answer over the history says so too, for the life of
// the cold tier.
TEST(ColdTierDegraded, QuarantinedBlockKeepsLaterAnswersDegraded) {
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
  const double lost = static_cast<double>(DegradedTopic::kRows - 80);
  bool degraded = false;
  EXPECT_DOUBLE_EQ(topic.Count(&degraded), lost);
  EXPECT_TRUE(degraded);
  ASSERT_EQ(topic.cold().quarantined_blocks(), 1u);
  for (const std::string query :
       {"SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t WHERE Timestamp >= 0",
        "SELECT COUNT(*), SUM(metric) FROM t WHERE metric >= 0"}) {
    SCOPED_TRACE(query);
    EXPECT_DOUBLE_EQ(topic.Count(&degraded, query), lost);
    EXPECT_TRUE(degraded);
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    EXPECT_TRUE(profile->degraded);
    EXPECT_TRUE(profile->vertices.at(0).degraded);
  }
  // The newest row is not history.
  auto latest = topic.executor().Execute("SELECT LAST(metric) FROM t");
  ASSERT_TRUE(latest.ok());
  EXPECT_FALSE(latest->degraded);
}

// Rows the archive dropped after their retries (a dead disk) are missing
// from every answer over the history: the index path, the scan, EXPLAIN
// and a continuous query each say so; LAST does not.
TEST(ColdTierDegraded, DroppedArchiveWritesMarkAnswersDegraded) {
  FaultInjector injector;  // outlives the topic's archiver
  ThreeTierTopic topic("coldtier_dropped_writes", /*ring=*/4,
                       /*records_per_segment=*/80);
  ASSERT_TRUE(topic.ok());
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.probability = 1.0;
  injector.Arm(spec);
  topic.archiver().AttachFaultInjector(&injector);
  RetryPolicy once;
  once.max_attempts = 1;
  topic.archiver().set_retry_policy(once);
  for (int i = 0; i < 10; ++i) topic.Append(1'000 + i * 10, i);
  ASSERT_EQ(topic.archiver().Failures(), 6u);
  ASSERT_EQ(topic.archiver().Count(), 0u);

  for (const std::string query :
       {"SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t WHERE Timestamp >= 0",
        "SELECT metric FROM t ORDER BY metric DESC LIMIT 2"}) {
    SCOPED_TRACE(query);
    auto result = topic.executor().Execute(query);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->degraded);
    ASSERT_FALSE(result->rows.empty());
    EXPECT_TRUE(result->rows[0].degraded);
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    EXPECT_TRUE(profile->vertices.at(0).degraded);
  }
  auto count = topic.executor().Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->rows.at(0).values.at(0), 4.0);
  auto latest = topic.executor().Execute("SELECT LAST(metric) FROM t");
  ASSERT_TRUE(latest.ok());
  EXPECT_FALSE(latest->degraded);
  EXPECT_DOUBLE_EQ(latest->rows.at(0).values.at(0), 9.0);

  cq::CQEngine engine(topic.broker());
  auto registered = engine.Register(1, "default", "count",
                                    "SUBSCRIBE SELECT COUNT(*) FROM t", 0, 0,
                                    RealClock::Instance().Now());
  ASSERT_TRUE(registered.ok()) << registered.error().ToString();
  std::vector<cq::CQUpdate> updates;
  engine.Pump(RealClock::Instance().Now(), nullptr,
              [&](const cq::CQInfo&, const cq::CQUpdate& update) {
                updates.push_back(update);
                return true;
              });
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_DOUBLE_EQ(updates[0].result.rows.at(0).values.at(0), 4.0);
  EXPECT_TRUE(updates[0].result.degraded);
  topic.archiver().AttachFaultInjector(nullptr);
}

// The summary path's counter gate, exact on every host and preset. On a
// topic with B cold blocks the first history aggregate decodes all B (and
// builds their summaries, and the WAL segment's); the second merges all B
// and the segment from their summaries, decodes none, and scans only the
// ring rows. A range decodes only the blocks at its edges.
TEST(ColdTierSummaries, RepeatedAggregateDecodesNoBlock) {
  DegradedTopic topic;
  ASSERT_TRUE(topic.ok());
  topic.Compact();
  const std::uint64_t blocks = topic.cold().BlockCount();
  ASSERT_EQ(blocks, 5u);
  const std::uint64_t ring = topic.stream()->Size();
  const std::uint64_t wal = topic.archiver().Count();
  const std::uint64_t cold = topic.cold().ColdRowCount();
  ASSERT_EQ(ring + wal + cold, DegradedTopic::kRows);

  const std::string query =
      "SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t";
  const std::vector<double> want = {420.0, 87990.0, 0.0, 419.0};
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    const aqe::VertexProfile& vp = profile->vertices.at(0);
    EXPECT_EQ(vp.cold_blocks_scanned, blocks);
    EXPECT_EQ(vp.cold_blocks_summarized, pass == 0 ? 0u : blocks);
    EXPECT_EQ(vp.wal_segments_summarized, pass == 0 ? 0u : 1u);
    EXPECT_EQ(vp.rows_scanned, ring + (pass == 0 ? wal + cold : 0u));
    EXPECT_EQ(vp.cold_rows, cold);
    EXPECT_EQ(vp.rows_matched, DegradedTopic::kRows);
    EXPECT_FALSE(vp.degraded);
    auto result = topic.executor().Execute(query);
    ASSERT_TRUE(result.ok());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_TRUE(SameBits(result->rows.at(0).values.at(c), want[c]))
          << "col " << c << ": " << result->rows.at(0).values.at(c);
    }
  }

  // Rows 40..410 (t = 1400..5100): block 0 is cut by the range and
  // decoded; blocks 1-4 and the WAL segment (its 4 rows) lie inside it and
  // merge from their summaries. Scanned: block 0's 40 rows in range and 7
  // ring rows.
  auto range = topic.executor().Explain(
      "SELECT COUNT(*), SUM(metric) FROM t WHERE Timestamp BETWEEN 1400 AND "
      "5100",
      /*analyze=*/true);
  ASSERT_TRUE(range.ok());
  const aqe::VertexProfile& vp = range->vertices.at(0);
  EXPECT_EQ(vp.cold_blocks_scanned, blocks);
  EXPECT_EQ(vp.cold_blocks_summarized, blocks - 1);
  EXPECT_EQ(vp.wal_segments_summarized, 1u);
  EXPECT_EQ(vp.rows_scanned, 40u + 7u);
  EXPECT_EQ(vp.rows_matched, 371u);
}

// The WAL half of the counter gate. On a topic with cold blocks, several
// sealed WAL segments and an active one, the first history aggregate reads
// every WAL record (and builds each segment's summary); the second reads
// none, merges every live segment from its summary, and scans only the
// ring rows. A range whose bounds miss a segment's prefix prunes it.
TEST(ColdTierSummaries, RepeatedAggregateReadsNoWalRecord) {
  ThreeTierTopic topic("coldtier_summary_wal", /*ring=*/16,
                       /*records_per_segment=*/40);
  ASSERT_TRUE(topic.ok());
  for (int i = 0; i < 300; ++i) topic.Append(1'000 + 10 * i, i);
  // Rows 0..119 to three blocks; 120..279 stay in four sealed segments,
  // 280..283 in the active one, 284..299 in the ring.
  auto compacted = topic.cold().CompactOnce(topic.archiver(), 3);
  ASSERT_TRUE(compacted.ok());
  ASSERT_EQ(topic.cold().BlockCount(), 3u);
  ASSERT_EQ(topic.archiver().SealedSegments().size(), 4u);
  ASSERT_EQ(topic.archiver().Count(), 164u);
  ASSERT_EQ(topic.stream()->Size(), 16u);

  const std::string query =
      "SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t";
  const std::vector<double> want = {300.0, 44850.0, 0.0, 299.0};
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    const aqe::VertexProfile& vp = profile->vertices.at(0);
    EXPECT_EQ(vp.wal_records_read, pass == 0 ? 164u : 0u);
    EXPECT_EQ(vp.wal_segments_summarized, pass == 0 ? 0u : 5u);
    EXPECT_EQ(vp.wal_segments_pruned, 0u);
    EXPECT_EQ(vp.cold_blocks_summarized, pass == 0 ? 0u : 3u);
    EXPECT_EQ(vp.rows_scanned, pass == 0 ? 300u : 16u);
    EXPECT_EQ(vp.archive_rows, 164u);
    EXPECT_EQ(vp.rows_matched, 300u);
    EXPECT_FALSE(vp.degraded);
    if (pass == 1) {
      EXPECT_NE(profile->ToText().find("wal_segments_summarized=5 "
                                       "wal_segments_pruned=0 "
                                       "wal_records_read=0"),
                std::string::npos)
          << profile->ToText();
    }
    auto result = topic.executor().Execute(query);
    ASSERT_TRUE(result.ok());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_TRUE(SameBits(result->rows.at(0).values.at(c), want[c]))
          << "col " << c << ": " << result->rows.at(0).values.at(c);
    }
  }

  // Rows 0..129 (t = 1000..2290): the blocks merge from their summaries;
  // the range cuts the first segment (rows 120..159), which is read for
  // its 10 rows in range, and misses the other four, which are pruned.
  auto range = topic.executor().Explain(
      "SELECT COUNT(*), SUM(metric) FROM t WHERE Timestamp BETWEEN 1000 AND "
      "2290",
      /*analyze=*/true);
  ASSERT_TRUE(range.ok());
  const aqe::VertexProfile& vp = range->vertices.at(0);
  EXPECT_EQ(vp.wal_segments_pruned, 4u);
  EXPECT_EQ(vp.wal_segments_summarized, 0u);
  EXPECT_EQ(vp.wal_records_read, 40u);
  EXPECT_EQ(vp.cold_blocks_summarized, 3u);
  EXPECT_EQ(vp.rows_scanned, 10u);
  EXPECT_EQ(vp.rows_matched, 130u);
}

// A summary keeps the scan's `latest`: the last row of a run of equal
// timestamps, not the first, so a range that ends on a run at a block's
// end answers the same from the summary as from the rows.
TEST(ColdTierSummaries, LatestOfATimestampRunIsItsLastRow) {
  ThreeTierTopic topic("coldtier_summary_latest", /*ring=*/4,
                       /*records_per_segment=*/8);
  ASSERT_TRUE(topic.ok());
  // Ids 5, 6 and 7, the last rows of block 0, share timestamp 1070.
  for (int i = 0; i < 24; ++i) {
    topic.Append(i >= 5 && i <= 7 ? 1'070 : 1'000 + 10 * i, i);
  }
  topic.Compact();
  ASSERT_GE(topic.cold().BlockCount(), 1u);
  const std::string query =
      "SELECT LAST(metric), COUNT(*) FROM t WHERE Timestamp BETWEEN 1000 AND "
      "1070";
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ(profile->vertices.at(0).cold_blocks_summarized,
              pass == 0 ? 0u : 1u);
    auto result = topic.executor().Execute(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows.at(0).values.at(0), 7.0);
    EXPECT_EQ(result->rows.at(0).values.at(1), 8.0);
  }
}

// A block of only NaNs has no MIN or MAX, from its rows or its summary
// (its zone map says +inf and -inf).
TEST(ColdTierSummaries, AllNaNBlockHasNoMinOrMax) {
  ThreeTierTopic topic("coldtier_summary_nan", /*ring=*/4,
                       /*records_per_segment=*/8);
  ASSERT_TRUE(topic.ok());
  for (int i = 0; i < 24; ++i) topic.Append(1'000 + 10 * i, i < 8 ? kNan : i);
  topic.Compact();
  const std::string query =
      "SELECT MIN(metric), MAX(metric), COUNT(*), SUM(metric) FROM t WHERE "
      "Timestamp BETWEEN 1000 AND 1070";
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    auto profile = topic.executor().Explain(query, /*analyze=*/true);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ(profile->vertices.at(0).cold_blocks_summarized,
              pass == 0 ? 0u : 1u);
    auto result = topic.executor().Execute(query);
    ASSERT_TRUE(result.ok());
    const std::vector<double>& cells = result->rows.at(0).values;
    EXPECT_TRUE(std::isnan(cells.at(0))) << cells.at(0);
    EXPECT_TRUE(std::isnan(cells.at(1))) << cells.at(1);
    EXPECT_EQ(cells.at(2), 8.0);
    EXPECT_TRUE(std::isnan(cells.at(3))) << cells.at(3);
  }
}

// History rows may be stamped later than the ring's: the wire accepts a
// timestamp below a topic's last one. A WAL or cold row counts when its id
// is below the warmer tier's first row, whatever its timestamp, so every
// row counts once, over ring + WAL and over ring + WAL + cold, however the
// range cuts it, aggregated from rows and again from summaries.
TEST(ColdTierCaps, HistoryStampedAfterTheRingCountsOnce) {
  const std::vector<TimeNs> later_history = {100, 200, 300, 400, 500,
                                             50,  60,  70,  80};
  for (const bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "ring + WAL + cold" : "ring + WAL");
    // A 4-row ring and two records a segment: stamps 100..300 (ids 0-2) in
    // the WAL, or 100..500 (ids 0-4) in two cold blocks and the WAL.
    ThreeTierTopic topic(cold ? "coldtier_caps_cold" : "coldtier_caps_wal",
                         /*ring=*/4, /*records_per_segment=*/2);
    ASSERT_TRUE(topic.ok());
    for (std::size_t i = 0; i < later_history.size(); ++i) {
      if (!cold && (i == 3 || i == 4)) continue;
      topic.Append(later_history[i], static_cast<double>(i));
    }
    if (cold) {
      topic.Compact();
      ASSERT_EQ(topic.cold().ColdRowCount(), 4u);
    }
    for (const auto& [lo, hi] : std::vector<std::pair<TimeNs, TimeNs>>{
             {kMinTs, kMaxTs}, {0, 1000}, {65, 1000}, {60, 250}, {300, 400}}) {
      double count = 0;
      double sum = 0;
      for (const ModelRow& row : topic.model()) {
        if (row.ts < lo || row.ts > hi) continue;
        ++count;
        sum += row.value;
      }
      const std::string query =
          "SELECT COUNT(*), SUM(metric) FROM t" +
          (lo == kMinTs ? std::string()
                        : " WHERE Timestamp BETWEEN " + std::to_string(lo) +
                              " AND " + std::to_string(hi));
      for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(query + " pass " + std::to_string(pass));
        auto profile = topic.executor().Explain(query, /*analyze=*/true);
        ASSERT_TRUE(profile.ok()) << profile.error().ToString();
        EXPECT_EQ(profile->vertices.at(0).rows_matched,
                  static_cast<std::uint64_t>(count));
        auto result = topic.executor().Execute(query);
        ASSERT_TRUE(result.ok()) << result.error().ToString();
        EXPECT_FALSE(result->degraded);
        EXPECT_EQ(result->rows.at(0).values.at(0), count);
        EXPECT_EQ(result->rows.at(0).values.at(1), sum);
      }
    }
  }
}

}  // namespace
}  // namespace apollo
