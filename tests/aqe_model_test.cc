// Model tests for the executor's row path, over rows that hold NaN, ±inf
// and ±0.0:
//   - ORDER BY [LIMIT] against the matches in scan order, stable-sorted by
//     the documented comparator and truncated;
//   - the folded WHERE filter against the literal per-condition
//     comparisons, with thresholds at the edges of double and int64;
//   - the batch scan (64-row match masks, top-k's rising cut, every tier
//     fed as columns) against a model that walks the rows one at a time,
//     rows and aggregates bit for bit and EXPLAIN's row counts exactly.
// The first two run on a ring alone and on a 16-row ring whose evictions
// land in a WAL; the third on a wrapped 100-row ring alone and over a WAL
// and cold blocks. Queries are built with QueryBuilder, so every threshold
// reaches the executor as an exact double.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "aqe/query_builder.h"
#include "coldtier/cold_tier.h"
#include "pubsub/broker.h"
#include "pubsub/wal_format.h"
#include "temp_wal.h"

namespace apollo::aqe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr TimeNs kMinTs = std::numeric_limits<TimeNs>::min();
constexpr TimeNs kMaxTs = std::numeric_limits<TimeNs>::max();

struct Row {
  TimeNs ts = 0;
  double value = 0.0;
  bool predicted = false;
};

double Cell(Column column, const Row& row) {
  switch (column) {
    case Column::kTimestamp:
      return static_cast<double>(row.ts);
    case Column::kMetric:
      return row.value;
    case Column::kPredicted:
      return row.predicted ? 1.0 : 0.0;
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

// The comparison a condition names, evaluated literally.
bool Holds(const Condition& cond, const Row& row) {
  const double v = Cell(cond.column, row);
  switch (cond.op) {
    case CompareOp::kLt:
      return v < cond.value;
    case CompareOp::kLe:
      return v <= cond.value;
    case CompareOp::kGt:
      return v > cond.value;
    case CompareOp::kGe:
      return v >= cond.value;
    case CompareOp::kEq:
      return v == cond.value;
    case CompareOp::kNe:
      return v != cond.value;
  }
  return false;
}

std::vector<Row> Matches(const std::vector<Row>& rows,
                         const std::vector<Condition>& where) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    if (std::all_of(where.begin(), where.end(),
                    [&](const Condition& c) { return Holds(c, row); })) {
      out.push_back(row);
    }
  }
  return out;
}

// Equal bit for bit: NaN by isnan, ±0.0 by signbit.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

// One topic "t" holding `rows` in publish order: a ring big enough for all
// of them, or a 16-row ring that evicts into a WAL.
class Table {
 public:
  Table(const std::vector<Row>& rows, bool with_wal)
      : broker_(RealClock::Instance()) {
    if (with_wal) {
      archiver_ = std::make_unique<TempWal>();
      EXPECT_TRUE(
          broker_.CreateTopic("t", kLocalNode, 16, archiver_.get()).ok());
    } else {
      EXPECT_TRUE(broker_.CreateTopic("t", kLocalNode, 1024).ok());
    }
    for (const Row& row : rows) {
      EXPECT_TRUE(broker_
                      .Publish("t", kLocalNode, row.ts,
                               Sample{row.ts, row.value,
                                      row.predicted ? Provenance::kPredicted
                                                    : Provenance::kMeasured})
                      .ok());
    }
  }

  Executor& executor() { return executor_; }

 private:
  std::unique_ptr<TempWal> archiver_;  // outlives the stream
  Broker broker_;
  Executor executor_{broker_};
};

// `SELECT timestamp, metric, predicted FROM t` with `where`, `order` and
// `limit`, checked row by row against `want`.
void ExpectRows(Executor& executor, const std::vector<Condition>& where,
                std::optional<OrderBy> order,
                std::optional<std::uint64_t> limit,
                const std::vector<Row>& want) {
  QueryBuilder builder;
  builder.Select(Column::kTimestamp)
      .Select(Column::kMetric)
      .Select(Column::kPredicted)
      .From("t");
  for (const Condition& c : where) builder.Where(c.column, c.op, c.value);
  if (order.has_value()) {
    builder.OrderByColumn(order->column, order->descending);
  }
  if (limit.has_value()) builder.Limit(*limit);
  const Query query = builder.Build();
  const std::string text = ToString(query);
  auto rs = executor.ExecuteQuery(query);
  ASSERT_TRUE(rs.ok()) << text;
  ASSERT_EQ(rs->NumRows(), want.size()) << text;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::vector<double>& got = rs->rows[i].values;
    ASSERT_EQ(got.size(), 3u);
    for (Column c : {Column::kTimestamp, Column::kMetric, Column::kPredicted}) {
      const double cell = got[static_cast<std::size_t>(c)];
      EXPECT_TRUE(SameBits(cell, Cell(c, want[i])))
          << text << ": row " << i << " column " << ColumnName(c) << " is "
          << cell << ", want " << Cell(c, want[i]);
    }
  }
}

// --- ORDER BY [LIMIT] against the reference sort ---

// Values with NaN, ±inf, ±0.0 and repeats, so ties and NaN keys are common.
double DrawValue(std::mt19937_64& rng) {
  static const double kPool[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1.5, 2.0, -3.0};
  if (rng() % 3 == 0) {
    return std::uniform_real_distribution<double>(-100.0, 100.0)(rng);
  }
  return kPool[rng() % std::size(kPool)];
}

// The documented order: a stable sort of the scan order that puts NaN keys
// last in both directions, then LIMIT.
std::vector<Row> ReferenceOrder(std::vector<Row> matches, OrderBy order,
                                std::optional<std::uint64_t> limit) {
  std::stable_sort(matches.begin(), matches.end(),
                   [&](const Row& a, const Row& b) {
                     const double x = Cell(order.column, a);
                     const double y = Cell(order.column, b);
                     return (order.descending ? x > y : x < y) ||
                            (std::isnan(y) && !std::isnan(x));
                   });
  if (limit.has_value() && matches.size() > *limit) matches.resize(*limit);
  return matches;
}

TEST(TopKModel, OrderByLimitEqualsStableSortOfScanOrder) {
  for (bool with_wal : {false, true}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (with_wal ? " (wal)" : " (ring)"));
      std::mt19937_64 rng(seed);
      const std::size_t n = seed == 0 ? 0 : rng() % 301;
      std::vector<Row> rows(n);
      // Non-decreasing timestamps with repeats, so timestamp keys tie too.
      TimeNs ts = static_cast<TimeNs>(rng() % 2001) - 1000;
      for (Row& row : rows) {
        ts += static_cast<TimeNs>(rng() % 3);
        row = Row{ts, DrawValue(rng), rng() % 4 == 0};
      }
      Table table(rows, with_wal);

      std::vector<std::vector<Condition>> wheres = {{}};
      if (n > 0) {
        const Row& pivot = rows[rng() % n];
        wheres.push_back({{Column::kMetric, CompareOp::kGt, pivot.value}});
        const Row& until = rows[rng() % n];
        wheres.push_back(
            {{Column::kTimestamp, CompareOp::kGe,
              static_cast<double>(std::min(pivot.ts, until.ts))},
             {Column::kTimestamp, CompareOp::kLe,
              static_cast<double>(std::max(pivot.ts, until.ts))}});
      }
      wheres.push_back({{Column::kPredicted, CompareOp::kEq, 0.0}});
      const std::uint64_t k = 2 + rng() % 16;
      const std::vector<std::optional<std::uint64_t>> limits = {
          std::nullopt, 0, 1, k, n, n + 7};

      for (const auto& where : wheres) {
        const std::vector<Row> matches = Matches(rows, where);
        for (Column key : {Column::kMetric, Column::kTimestamp}) {
          for (bool descending : {false, true}) {
            const OrderBy order{key, descending};
            for (const auto& limit : limits) {
              ExpectRows(table.executor(), where, order, limit,
                         ReferenceOrder(matches, order, limit));
            }
          }
        }
      }
    }
  }
}

// --- the folded WHERE against literal per-condition evaluation ---

// Timestamps spanning zero, out to both int64 limits and past 2^53, where
// neighbouring timestamps share one double.
std::vector<Row> FilterRows(std::mt19937_64& rng) {
  const TimeNs two53 = TimeNs{1} << 53;
  std::vector<TimeNs> stamps = {kMinTs,
                                kMinTs + 1,
                                -(TimeNs{1} << 62),
                                -two53 - 3,
                                -two53 - 1,
                                -1000,
                                -7,
                                -1,
                                0,
                                0,
                                1,
                                7,
                                1000,
                                two53 + 1,
                                two53 + 3,
                                TimeNs{1} << 62,
                                kMaxTs - 1,
                                kMaxTs};
  for (int i = 0; i < 30; ++i) {
    stamps.push_back(static_cast<TimeNs>(rng() % 4001) - 2000);
  }
  std::sort(stamps.begin(), stamps.end());
  static const double kValues[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1.0, -1.0,
                                   2.5,  1e300, -1e300, DBL_MIN, -DBL_MIN};
  std::vector<Row> rows;
  for (TimeNs ts : stamps) {
    const double value = kValues[rng() % std::size(kValues)];
    rows.push_back(Row{ts, value, rng() % 2 == 0});
  }
  return rows;
}

double DrawThreshold(std::mt19937_64& rng, const std::vector<Row>& rows,
                     Column column) {
  static const double kEdges[] = {
      kNaN,
      kInf,
      -kInf,
      0.0,
      -0.0,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      9223372036854775808.0,  // 2^63
      -9223372036854775808.0,
      9.3e18,
      -9.3e18,
      9007199254740996.0,  // 2^53 + 4
      0.5,
      -0.5,
      2.5,
      1000.5,
      -7.25,
      1.0};
  if (rng() % 2 == 0) {
    return kEdges[rng() % std::size(kEdges)];
  }
  return Cell(column, rows[rng() % rows.size()]);
}

TEST(RowFilterModel, FoldedWhereEqualsLiteralComparisons) {
  static const Column kColumns[] = {Column::kTimestamp, Column::kMetric,
                                    Column::kPredicted};
  static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe,
                                   CompareOp::kEq, CompareOp::kNe};
  for (bool with_wal : {false, true}) {
    std::mt19937_64 rng(with_wal ? 2 : 1);
    const std::vector<Row> rows = FilterRows(rng);
    Table table(rows, with_wal);
    for (int trial = 0; trial < 1500; ++trial) {
      std::vector<Condition> where(1 + rng() % 4);
      for (Condition& cond : where) {
        cond.column = kColumns[rng() % 3];
        cond.op = kOps[rng() % 6];
        cond.value = DrawThreshold(rng, rows, cond.column);
      }
      const std::vector<Row> want = Matches(rows, where);
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << (with_wal ? " (wal)" : " (ring)"));

      QueryBuilder count;
      count.Select(Aggregate::kCount, Column::kStar).From("t");
      for (const Condition& c : where) count.Where(c.column, c.op, c.value);
      const Query query = count.Build();
      auto rs = table.executor().ExecuteQuery(query);
      ASSERT_TRUE(rs.ok());
      EXPECT_EQ(rs->rows.at(0).values.at(0), static_cast<double>(want.size()))
          << ToString(query);

      ExpectRows(table.executor(), where, std::nullopt, std::nullopt, want);
    }
  }
}

// --- the batch scan against a per-row model ---

// The value of row `i`. Mostly halves in [-500, 500], and one row in 16
// from a pool of NaN, ±inf, ±0.0 and repeats. Rows 375-474 of every 500
// hold only 2.0 and the doubles either side of it, so that a full top-k's
// cut sits on 2.0 with neighbours one ulp away still to come; in rows
// 475-499 half the values are NaN, so a full top-k can hold NaN keys
// between blocks. Every finite value is a multiple of 2^-52, so ModelSum
// adds them exactly.
double DrawScanValue(std::mt19937_64& rng, std::size_t i) {
  static const double kPool[] = {kNaN, kInf, -kInf, 0.0, -0.0, 2.0, -3.0};
  static const double kNearTwo[] = {2.0, 2.0, std::nextafter(2.0, 3.0),
                                    std::nextafter(2.0, 1.0)};
  const std::size_t phase = i % 500;
  if (phase >= 375 && phase < 475) return kNearTwo[rng() % 4];
  if (phase >= 475 && rng() % 2 == 0) return kNaN;
  if (rng() % 16 == 0) return kPool[rng() % std::size(kPool)];
  return static_cast<double>(static_cast<int>(rng() % 2001) - 1000) / 2.0;
}

// The exact sum of finite multiples of 2^-52 no larger than 2^10 in
// magnitude, rounded once to nearest-even: integer sums in units of 2^-52,
// then one conversion.
double ModelSum(const std::vector<double>& finite) {
  __int128 units = 0;
  for (double v : finite) {
    units += static_cast<__int128>(std::ldexp(v, 52));
  }
  return std::ldexp(static_cast<double>(units), -52);
}

// One topic "t" after 10,000 appends to a 100-row ring (128 slots, so the
// window wraps): the ring alone, which answers from its last 100 rows, or
// a ring over a WAL of 150-record segments, most of them compacted into
// cold blocks, which answers from all 10,000.
class ScanTopic {
 public:
  static constexpr std::size_t kRing = 100;
  static constexpr std::size_t kAppends = 10000;
  static constexpr std::size_t kSegmentRecords = 150;
  static constexpr TimeNs kFirstTs = 1'000'000;

  ScanTopic(bool three_tier, std::uint64_t seed)
      : broker_(RealClock::Instance()) {
    if (three_tier) {
      WalConfig config;
      config.segment_bytes =
          wal::kHeaderSize +
          kSegmentRecords *
              (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
      archiver_ =
          std::make_unique<Archiver<Sample>>(dir_.dir + "/t.log", config);
      EXPECT_TRUE(archiver_->OpenStatus().ok());
      cold_ = std::make_unique<coldtier::ColdTier>(archiver_->path());
      EXPECT_TRUE(cold_->Open().ok());
      archiver_->AttachColdReader(cold_.get());
    }
    EXPECT_TRUE(
        broker_.CreateTopic("t", kLocalNode, kRing, archiver_.get()).ok());
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < kAppends; ++i) {
      const TimeNs ts = kFirstTs + 10 * static_cast<TimeNs>(i);
      const Row row{ts, DrawScanValue(rng, i), rng() % 4 == 0};
      EXPECT_TRUE(broker_
                      .Publish("t", kLocalNode, ts,
                               Sample{ts, row.value,
                                      row.predicted ? Provenance::kPredicted
                                                    : Provenance::kMeasured})
                      .ok());
      all_.push_back(row);
      // Leaves about 1,000 rows in the WAL.
      if (three_tier && i == 9000) {
        auto compacted = cold_->CompactOnce(*archiver_);
        EXPECT_TRUE(compacted.ok());
      }
    }
    if (three_tier) {
      cold_rows_ = static_cast<std::size_t>(cold_->ColdRowCount());
      EXPECT_GT(cold_rows_, 8000u);
      visible_ = all_;
    } else {
      visible_.assign(all_.end() - kRing, all_.end());
    }
  }

  const std::vector<Row>& all() const { return all_; }
  // The rows the topic answers from, in scan order.
  const std::vector<Row>& visible() const { return visible_; }
  std::size_t cold_rows() const { return cold_rows_; }
  Executor& executor() { return executor_; }

 private:
  ScratchDir dir_;
  std::unique_ptr<Archiver<Sample>> archiver_;
  std::unique_ptr<coldtier::ColdTier> cold_;
  Broker broker_;  // its stream writes to archiver_: destroyed first
  Executor executor_{broker_};
  std::vector<Row> all_;
  std::vector<Row> visible_;
  std::size_t cold_rows_ = 0;
};

// The rows a scan under `where` reads, in scan order: those whose
// timestamp lies in the range its `>=` and `<=` Timestamp conditions span
// (the only Timestamp conditions these cases use).
std::vector<Row> InRange(const std::vector<Row>& rows,
                         const std::vector<Condition>& where) {
  double from = -kInf;
  double to = kInf;
  for (const Condition& c : where) {
    if (c.column != Column::kTimestamp) continue;
    if (c.op == CompareOp::kGe) from = std::max(from, c.value);
    if (c.op == CompareOp::kLe) to = std::min(to, c.value);
  }
  std::vector<Row> out;
  for (const Row& row : rows) {
    const double ts = static_cast<double>(row.ts);
    if (ts >= from && ts <= to) out.push_back(row);
  }
  return out;
}

// `SELECT timestamp, metric, predicted FROM t` with `where`, `order` and
// `limit`, as ExpectRows builds it.
Query RowQuery(const std::vector<Condition>& where,
               std::optional<OrderBy> order,
               std::optional<std::uint64_t> limit) {
  QueryBuilder builder;
  builder.Select(Column::kTimestamp)
      .Select(Column::kMetric)
      .Select(Column::kPredicted)
      .From("t");
  for (const Condition& c : where) builder.Where(c.column, c.op, c.value);
  if (order.has_value()) {
    builder.OrderByColumn(order->column, order->descending);
  }
  if (limit.has_value()) builder.Limit(*limit);
  return builder.Build();
}

// EXPLAIN ANALYZE's row counts for `query`.
void ExpectCounts(Executor& executor, const Query& query,
                  std::uint64_t scanned, std::uint64_t matched) {
  const std::string text = ToString(query);
  auto profile = executor.Explain(text, /*analyze=*/true);
  ASSERT_TRUE(profile.ok()) << text;
  ASSERT_EQ(profile->vertices.size(), 1u) << text;
  EXPECT_EQ(profile->vertices[0].rows_scanned, scanned) << text;
  EXPECT_EQ(profile->vertices[0].rows_matched, matched) << text;
}

// COUNT(*), SUM(metric), MIN(metric), MAX(metric), MIN(Timestamp),
// MAX(predicted) and the latest row's metric over `matches`, row by row:
// SUM is NaN over a NaN or both infinities, an infinity over infinities of
// one sign, else the exact sum of the rest; MIN/MAX skip NaN and order
// -0.0 below +0.0; the latest row is the last one in scan order whose
// timestamp is not below the latest so far.
std::vector<double> ModelAggregates(const std::vector<Row>& matches) {
  if (matches.empty()) return {0.0, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN};
  bool nan = false, pos_inf = false, neg_inf = false;
  std::vector<double> finite;
  double min = kNaN, max = kNaN, min_ts = kInf, any_predicted = 0.0;
  const Row* latest = nullptr;
  const auto below = [](double a, double b) {
    return a < b || (a == 0.0 && b == 0.0 && std::signbit(a) &&
                     !std::signbit(b));
  };
  for (const Row& row : matches) {
    const double v = row.value;
    if (std::isnan(v)) {
      nan = true;
    } else if (std::isinf(v)) {
      (v > 0 ? pos_inf : neg_inf) = true;
    } else {
      finite.push_back(v);
    }
    if (!std::isnan(v)) {
      if (std::isnan(min) || below(v, min)) min = v;
      if (std::isnan(max) || below(max, v)) max = v;
    }
    min_ts = std::min(min_ts, static_cast<double>(row.ts));
    if (row.predicted) any_predicted = 1.0;
    if (latest == nullptr || row.ts >= latest->ts) latest = &row;
  }
  double sum = ModelSum(finite);
  if (nan || (pos_inf && neg_inf)) {
    sum = kNaN;
  } else if (pos_inf || neg_inf) {
    sum = pos_inf ? kInf : -kInf;
  }
  return {static_cast<double>(matches.size()), sum, min, max, min_ts,
          any_predicted, latest->value};
}

// Every case on one topic: Timestamp ranges of 1 to 129 rows placed across
// the ring's wrap, tier boundaries and block edges, and no range at all,
// each with `!=` or other conditions; every ORDER BY column in both
// directions and no ORDER BY; LIMIT 0, 1, k and none. Rows and aggregates
// are compared bit for bit, EXPLAIN's rows_scanned and rows_matched with
// the rows the model tested and matched.
void CheckScanCases(ScanTopic& topic, std::mt19937_64& rng,
                    const std::vector<std::size_t>& starts_near) {
  const std::vector<Row>& all = topic.all();
  const auto pick_value = [&] {
    return all[rng() % all.size()].value;
  };
  std::vector<std::vector<Condition>> wheres = {
      {},
      {{Column::kMetric, CompareOp::kNe, 2.0}},
      {{Column::kPredicted, CompareOp::kNe, 0.0}}};
  std::size_t variant = 0;
  for (std::size_t length : {1, 63, 64, 65, 127, 129}) {
    for (std::size_t near : starts_near) {
      const std::size_t start =
          std::min(near > length / 2 ? near - length / 2 : 0,
                   all.size() - length);
      std::vector<Condition> where = {
          {Column::kTimestamp, CompareOp::kGe,
           static_cast<double>(all[start].ts)},
          {Column::kTimestamp, CompareOp::kLe,
           static_cast<double>(all[start + length - 1].ts)}};
      switch (variant++ % 4) {
        case 0:
          break;
        case 1:
          where.push_back({Column::kMetric, CompareOp::kNe, pick_value()});
          break;
        case 2:
          where.push_back({Column::kPredicted, CompareOp::kNe, 1.0});
          where.push_back({Column::kMetric, CompareOp::kGt, pick_value()});
          break;
        case 3:
          where.push_back({Column::kMetric, CompareOp::kGe, pick_value()});
          where.push_back({Column::kMetric, CompareOp::kNe, pick_value()});
          break;
      }
      wheres.push_back(std::move(where));
    }
  }

  for (const auto& where : wheres) {
    const std::vector<Row> in_range = InRange(topic.visible(), where);
    std::vector<Row> matches;
    std::vector<std::size_t> match_pos;  // scan positions of the matches
    for (std::size_t i = 0; i < in_range.size(); ++i) {
      if (std::all_of(where.begin(), where.end(), [&](const Condition& c) {
            return Holds(c, in_range[i]);
          })) {
        matches.push_back(in_range[i]);
        match_pos.push_back(i);
      }
    }
    const std::uint64_t k = 2 + rng() % 70;
    for (const std::optional<std::uint64_t>& limit :
         {std::optional<std::uint64_t>(), std::optional<std::uint64_t>(0),
          std::optional<std::uint64_t>(1), std::optional<std::uint64_t>(k)}) {
      // No ORDER BY: rows in scan order, and the scan stops at the first
      // match past LIMIT, which it tested and counted.
      std::vector<Row> first = matches;
      std::uint64_t scanned = in_range.size();
      std::uint64_t matched = matches.size();
      if (limit.has_value() && matches.size() > *limit) {
        first.resize(*limit);
        scanned = match_pos[*limit] + 1;
        matched = *limit + 1;
      }
      ExpectRows(topic.executor(), where, std::nullopt, limit, first);
      ExpectCounts(topic.executor(), RowQuery(where, std::nullopt, limit),
                   scanned, matched);
      for (Column key :
           {Column::kTimestamp, Column::kMetric, Column::kPredicted}) {
        for (bool descending : {false, true}) {
          const OrderBy order{key, descending};
          ExpectRows(topic.executor(), where, order, limit,
                     ReferenceOrder(matches, order, limit));
          ExpectCounts(topic.executor(), RowQuery(where, order, limit),
                       in_range.size(), matches.size());
        }
      }
    }

    // The aggregate consumer over the same rows. A condition on
    // `predicted` keeps the branch a scan and cold blocks decoded, so
    // every row is tested.
    QueryBuilder builder;
    builder.Select(Aggregate::kCount, Column::kStar)
        .Select(Aggregate::kSum, Column::kMetric)
        .Select(Aggregate::kMin, Column::kMetric)
        .Select(Aggregate::kMax, Column::kMetric)
        .Select(Aggregate::kMin, Column::kTimestamp)
        .Select(Aggregate::kMax, Column::kPredicted)
        .Select(Column::kMetric)
        .From("t");
    for (const Condition& c : where) builder.Where(c.column, c.op, c.value);
    builder.Where(Column::kPredicted, CompareOp::kNe, 2.0);
    const Query query = builder.Build();
    const std::string text = ToString(query);
    auto rs = topic.executor().ExecuteQuery(query);
    ASSERT_TRUE(rs.ok()) << text;
    ASSERT_EQ(rs->NumRows(), 1u) << text;
    const std::vector<double> want = ModelAggregates(matches);
    ASSERT_EQ(rs->rows[0].values.size(), want.size()) << text;
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_TRUE(SameBits(rs->rows[0].values[c], want[c]))
          << text << ": cell " << c << " is " << rs->rows[0].values[c]
          << ", want " << want[c];
    }
    ExpectCounts(topic.executor(), query, in_range.size(), matches.size());
  }
}

TEST(ScanBatchModel, WrappedRingMatchesPerRowModel) {
  ScanTopic topic(/*three_tier=*/false, /*seed=*/11);
  std::mt19937_64 rng(12);
  const std::size_t window = ScanTopic::kAppends - ScanTopic::kRing;
  // Before the window, its first row (the window starts with 75 values
  // near 2.0), inside it, the ring's wrap (id 9984 sits in slot 0 of 128)
  // and its newest row.
  CheckScanCases(topic, rng,
                 {window - 20, window, window + 30, 9984,
                  ScanTopic::kAppends - 1});
}

TEST(ScanBatchModel, ThreeTierTopicMatchesPerRowModel) {
  ScanTopic topic(/*three_tier=*/true, /*seed=*/21);
  std::mt19937_64 rng(22);
  const std::size_t window = ScanTopic::kAppends - ScanTopic::kRing;
  // A cold block edge, ranges from the start of a stretch of values near
  // 2.0, the cold/WAL boundary, the WAL/ring boundary, the ring's wrap and
  // its newest row.
  CheckScanCases(topic, rng,
                 {20 * ScanTopic::kSegmentRecords, 5375 + 64, topic.cold_rows(),
                  window, 9984, ScanTopic::kAppends - 1});
}

// Cold rows reach the consumers 64 at a time, and a block's summary is
// merged as the scan reaches it, so the rows packed before a summarized
// block are fed first: `latest` keeps the last of equal timestamps in scan
// order. Block A (8 rows, ts 93..100) is decoded, being only partly in
// range; block B (8 rows, all ts 100) is merged from its summary, whose
// latest row is B's last; the answer's metric is that row's.
TEST(ScanBatchModel, LatestKeepsScanOrderAcrossASummarizedBlock) {
  constexpr std::size_t kRecords = 8;
  ScratchDir dir;
  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize +
      kRecords * (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
  Archiver<Sample> archiver(dir.dir + "/t.log", config);
  ASSERT_TRUE(archiver.OpenStatus().ok());
  coldtier::ColdTier cold(archiver.path());
  ASSERT_TRUE(cold.Open().ok());
  archiver.AttachColdReader(&cold);
  Broker broker(RealClock::Instance());
  ASSERT_TRUE(broker.CreateTopic("t", kLocalNode, 4, &archiver).ok());
  double value = 0.0;
  const auto publish = [&](TimeNs ts) {
    value += 1.0;
    ASSERT_TRUE(broker
                    .Publish("t", kLocalNode, ts,
                             Sample{ts, value, Provenance::kMeasured})
                    .ok());
  };
  for (TimeNs ts = 93; ts <= 100; ++ts) publish(ts);  // block A: 1..8
  for (int i = 0; i < 8; ++i) publish(100);           // block B: 9..16
  for (TimeNs ts = 200; ts < 220; ++ts) publish(ts);  // WAL and ring
  auto compacted = cold.CompactOnce(archiver);
  ASSERT_TRUE(compacted.ok());
  ASSERT_GE(cold.ColdRowCount(), 2 * kRecords);

  Executor executor(broker);
  const std::string query =
      "SELECT COUNT(*), metric FROM t WHERE Timestamp BETWEEN 95 AND 100";
  // The first read decodes both blocks and builds their summaries.
  for (int run = 0; run < 2; ++run) {
    auto rs = executor.Execute(query);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->NumRows(), 1u);
    EXPECT_EQ(rs->rows[0].values[0], 14.0) << "run " << run;
    EXPECT_EQ(rs->rows[0].values[1], 16.0) << "run " << run;
  }
  auto profile = executor.Explain(query, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->vertices.at(0).cold_blocks_summarized, 1u);
  EXPECT_EQ(profile->vertices.at(0).rows_scanned, 6u);
}

// The same rule across the cold/WAL boundary: cold rows are fed before
// every WAL piece. Block A (8 rows, ts 93..100) is decoded, being only
// partly in range; the next segment (8 rows, all ts 100) stays in the WAL
// and, once read, is merged from its summary, whose latest row is the
// segment's last. A's last row ties it on the timestamp and loses: the
// answer's metric is the segment's last row's.
TEST(ScanBatchModel, LatestKeepsScanOrderFromAColdRowToAWalSummary) {
  constexpr std::size_t kRecords = 8;
  ScratchDir dir;
  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize +
      kRecords * (wal::kFrameOverhead + sizeof(Archiver<Sample>::Record));
  Archiver<Sample> archiver(dir.dir + "/t.log", config);
  ASSERT_TRUE(archiver.OpenStatus().ok());
  coldtier::ColdTier cold(archiver.path());
  ASSERT_TRUE(cold.Open().ok());
  archiver.AttachColdReader(&cold);
  Broker broker(RealClock::Instance());
  ASSERT_TRUE(broker.CreateTopic("t", kLocalNode, 4, &archiver).ok());
  double value = 0.0;
  const auto publish = [&](TimeNs ts) {
    value += 1.0;
    ASSERT_TRUE(broker
                    .Publish("t", kLocalNode, ts,
                             Sample{ts, value, Provenance::kMeasured})
                    .ok());
  };
  for (TimeNs ts = 93; ts <= 100; ++ts) publish(ts);  // block A: 1..8
  for (int i = 0; i < 8; ++i) publish(100);           // segment: 9..16
  for (TimeNs ts = 200; ts < 220; ++ts) publish(ts);  // WAL and ring
  auto compacted = cold.CompactOnce(archiver, 1);
  ASSERT_TRUE(compacted.ok());
  ASSERT_EQ(cold.BlockCount(), 1u);

  Executor executor(broker);
  const std::string query =
      "SELECT COUNT(*), metric FROM t WHERE Timestamp BETWEEN 95 AND 100";
  // The first read decodes the block and reads the segment, building both
  // summaries.
  for (int run = 0; run < 2; ++run) {
    auto rs = executor.Execute(query);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->NumRows(), 1u);
    EXPECT_EQ(rs->rows[0].values[0], 14.0) << "run " << run;
    EXPECT_EQ(rs->rows[0].values[1], 16.0) << "run " << run;
  }
  auto profile = executor.Explain(query, /*analyze=*/true);
  ASSERT_TRUE(profile.ok());
  const VertexProfile& vp = profile->vertices.at(0);
  EXPECT_EQ(vp.cold_blocks_summarized, 0u);
  EXPECT_EQ(vp.wal_segments_summarized, 1u);
  EXPECT_EQ(vp.rows_scanned, 6u);
  EXPECT_EQ(vp.rows_matched, 14u);
}

}  // namespace
}  // namespace apollo::aqe
