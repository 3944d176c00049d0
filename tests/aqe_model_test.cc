// Model tests for the executor's row path, over rows that hold NaN, ±inf
// and ±0.0:
//   - ORDER BY [LIMIT] against the matches in scan order, stable-sorted by
//     the documented comparator and truncated;
//   - the folded WHERE filter against the literal per-condition
//     comparisons, with thresholds at the edges of double and int64.
// Each runs on a ring alone and on a 16-row ring whose evictions land in
// an in-memory archiver (the WAL path). Queries are built with
// QueryBuilder, so every threshold reaches the executor as an exact double.
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
#include "pubsub/broker.h"
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

}  // namespace
}  // namespace apollo::aqe
