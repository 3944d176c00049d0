#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "aqe/parser.h"
#include "aqe/query_builder.h"
#include "pubsub/broker.h"
#include "temp_wal.h"

namespace apollo::aqe {
namespace {

// --- parser ---

TEST(Parser, SimpleSelect) {
  auto query = Parse("SELECT metric FROM node_1_capacity");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->selects.size(), 1u);
  const Select& select = query->selects[0];
  EXPECT_EQ(select.table, "node_1_capacity");
  ASSERT_EQ(select.items.size(), 1u);
  EXPECT_EQ(select.items[0].aggregate, Aggregate::kNone);
  EXPECT_EQ(select.items[0].column, Column::kMetric);
}

TEST(Parser, PaperResourceQuery) {
  auto query = Parse(
      "SELECT MAX(Timestamp), metric FROM pfs_capacity "
      "UNION "
      "SELECT MAX(Timestamp), metric FROM node_1_memory_capacity "
      "UNION "
      "SELECT MAX(Timestamp), metric FROM node_2_availability;");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->selects.size(), 3u);
  EXPECT_EQ(query->selects[0].items[0].aggregate, Aggregate::kMax);
  EXPECT_EQ(query->selects[0].items[0].column, Column::kTimestamp);
  EXPECT_EQ(query->selects[2].table, "node_2_availability");
}

TEST(Parser, KeywordsCaseInsensitive) {
  auto query = Parse("select max(timestamp), METRIC from T union all "
                     "Select Min(Metric) From U");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->selects.size(), 2u);
  EXPECT_EQ(query->selects[1].items[0].aggregate, Aggregate::kMin);
}

TEST(Parser, TableNamesCaseSensitive) {
  auto query = Parse("SELECT metric FROM MyTable");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->selects[0].table, "MyTable");
}

TEST(Parser, WhereConditions) {
  auto query = Parse(
      "SELECT metric FROM t WHERE timestamp >= 100 AND timestamp < 200 "
      "AND predicted = 0");
  ASSERT_TRUE(query.ok());
  const Select& select = query->selects[0];
  ASSERT_EQ(select.where.size(), 3u);
  EXPECT_EQ(select.where[0].op, CompareOp::kGe);
  EXPECT_EQ(select.where[0].value, 100.0);
  EXPECT_EQ(select.where[1].op, CompareOp::kLt);
  EXPECT_EQ(select.where[2].column, Column::kPredicted);
}

TEST(Parser, OrderByAndLimit) {
  auto query = Parse(
      "SELECT timestamp, metric FROM t ORDER BY metric DESC LIMIT 5");
  ASSERT_TRUE(query.ok());
  const Select& select = query->selects[0];
  ASSERT_TRUE(select.order_by.has_value());
  EXPECT_EQ(select.order_by->column, Column::kMetric);
  EXPECT_TRUE(select.order_by->descending);
  EXPECT_EQ(select.limit.value(), 5u);
}

TEST(Parser, CountStar) {
  auto query = Parse("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->selects[0].items[0].aggregate, Aggregate::kCount);
  EXPECT_EQ(query->selects[0].items[0].column, Column::kStar);
}

TEST(Parser, AllAggregates) {
  auto query = Parse(
      "SELECT MAX(metric), MIN(metric), AVG(metric), SUM(metric), "
      "COUNT(*), LAST(metric) FROM t");
  ASSERT_TRUE(query.ok());
  const auto& items = query->selects[0].items;
  ASSERT_EQ(items.size(), 6u);
  EXPECT_EQ(items[0].aggregate, Aggregate::kMax);
  EXPECT_EQ(items[1].aggregate, Aggregate::kMin);
  EXPECT_EQ(items[2].aggregate, Aggregate::kAvg);
  EXPECT_EQ(items[3].aggregate, Aggregate::kSum);
  EXPECT_EQ(items[4].aggregate, Aggregate::kCount);
  EXPECT_EQ(items[5].aggregate, Aggregate::kLast);
}

TEST(Parser, NegativeAndFloatLiterals) {
  auto query = Parse("SELECT metric FROM t WHERE metric > -2.5");
  ASSERT_TRUE(query.ok());
  EXPECT_DOUBLE_EQ(query->selects[0].where[0].value, -2.5);
}

TEST(Parser, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELEKT metric FROM t").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT metric").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM").ok());
  EXPECT_FALSE(Parse("SELECT bogus_col FROM t").ok());
  EXPECT_FALSE(Parse("SELECT MAX(metric FROM t").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t WHERE metric >").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t garbage").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t").ok());
  EXPECT_FALSE(Parse("SELECT MAX(*) FROM t").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t ORDER metric").ok());
  EXPECT_FALSE(Parse("SELECT metric FROM t WHERE metric ! 3").ok());
}

TEST(Parser, ErrorsArriveAsParseError) {
  auto bad = Parse("SELECT metric FROM t @@");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kParseError);
}

// LIMIT arrives as a double: a negative or NaN one is an error, one at or
// above 2^64 means no limit, and a fractional one truncates.
TEST(Parser, LimitOutsideUint64) {
  for (const char* bad : {"-1", "-0.5", "-nan", "+nan", "-inf"}) {
    auto query = Parse(std::string("SELECT metric FROM t LIMIT ") + bad);
    ASSERT_FALSE(query.ok()) << bad;
    EXPECT_EQ(query.error().code(), ErrorCode::kParseError) << bad;
  }
  for (const char* none : {"1e30", "+inf", "18446744073709551616"}) {
    auto query = Parse(std::string("SELECT metric FROM t LIMIT ") + none);
    ASSERT_TRUE(query.ok()) << none;
    EXPECT_FALSE(query->selects[0].limit.has_value()) << none;
  }
  auto fractional = Parse("SELECT metric FROM t LIMIT 2.9");
  ASSERT_TRUE(fractional.ok());
  EXPECT_EQ(fractional->selects[0].limit, std::optional<std::uint64_t>(2));
}

// Thresholds beyond long long and non-finite ones survive ToString, which
// the daemon uses to re-render the branches it serves.
TEST(Parser, ThresholdsRoundTripThroughToString) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (double x : {1e30, -1e30, 9.3e18, 9.2e18, -9.2e18, kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN(), 2.5, -7.0}) {
    Query query = QueryBuilder()
                      .Select(Aggregate::kCount, Column::kStar)
                      .From("t")
                      .Where(Column::kTimestamp, CompareOp::kLt, x)
                      .Build();
    const std::string text = ToString(query);
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const double back = parsed->selects.at(0).where.at(0).value;
    EXPECT_TRUE(back == x || (std::isnan(back) && std::isnan(x))) << text;
  }
}

// An EVERY interval that is NaN or reaches 2^63 ns is an error.
TEST(Parser, EveryOutsideInt64) {
  for (const char* bad :
       {"-nan s", "+nan ms", "1e30 s", "9.3e9 s", "+inf ns", "-1 s"}) {
    auto query = Parse(
        std::string("SUBSCRIBE SELECT LAST(metric) FROM t EVERY ") + bad);
    ASSERT_FALSE(query.ok()) << bad;
    EXPECT_EQ(query.error().code(), ErrorCode::kParseError) << bad;
  }
  auto most = Parse("SUBSCRIBE SELECT LAST(metric) FROM t EVERY 9e9 s");
  ASSERT_TRUE(most.ok());
  EXPECT_EQ(most->every_ns, 9'000'000'000'000'000'000);
}

// --- executor ---

class ExecutorTest : public testing::Test {
 protected:
  ExecutorTest() : broker_(RealClock::Instance()) {
    broker_.CreateTopic("cap");
    for (int i = 0; i < 10; ++i) {
      broker_.Publish("cap", kLocalNode, Seconds(i),
                      Sample{Seconds(i), 100.0 - i,
                             i % 2 == 0 ? Provenance::kMeasured
                                        : Provenance::kPredicted});
    }
    broker_.CreateTopic("load");
    for (int i = 0; i < 5; ++i) {
      broker_.Publish("load", kLocalNode, Seconds(i),
                      Sample{Seconds(i), i * 1.0, Provenance::kMeasured});
    }
  }

  Broker broker_;
};

TEST_F(ExecutorTest, LatestValueIdiom) {
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT MAX(Timestamp), metric FROM cap");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->columns,
            (std::vector<std::string>{"MAX(timestamp)", "metric"}));
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0],
                   static_cast<double>(Seconds(9)));
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1], 91.0);
  EXPECT_EQ(rs->rows[0].source, "cap");
}

TEST_F(ExecutorTest, UnionCombinesTables) {
  Executor executor(broker_);
  auto rs = executor.Execute(
      "SELECT MAX(Timestamp), metric FROM cap UNION "
      "SELECT MAX(Timestamp), metric FROM load");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->rows[0].source, "cap");
  EXPECT_EQ(rs->rows[1].source, "load");
  EXPECT_DOUBLE_EQ(rs->rows[1].values[1], 4.0);
}

TEST_F(ExecutorTest, Aggregates) {
  Executor executor(broker_);
  auto rs = executor.Execute(
      "SELECT MAX(metric), MIN(metric), AVG(metric), SUM(metric), COUNT(*) "
      "FROM load");
  ASSERT_TRUE(rs.ok());
  const auto& row = rs->rows[0].values;
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[1], 0.0);
  EXPECT_DOUBLE_EQ(row[2], 2.0);
  EXPECT_DOUBLE_EQ(row[3], 10.0);
  EXPECT_DOUBLE_EQ(row[4], 5.0);
}

TEST_F(ExecutorTest, WhereTimestampRange) {
  Executor executor(broker_);
  auto rs = executor.Execute(
      "SELECT COUNT(*) FROM cap WHERE timestamp >= 2000000000 AND "
      "timestamp <= 5000000000");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 4.0);  // t=2,3,4,5
}

TEST_F(ExecutorTest, WhereProvenanceFilter) {
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT COUNT(*) FROM cap WHERE predicted = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 5.0);
}

TEST_F(ExecutorTest, WhereMetricThreshold) {
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT COUNT(*) FROM cap WHERE metric < 95");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 4.0);  // 91,92,93,94
}

TEST_F(ExecutorTest, RowSelectWithOrderAndLimit) {
  Executor executor(broker_);
  auto rs = executor.Execute(
      "SELECT timestamp, metric FROM load ORDER BY metric DESC LIMIT 3");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 3u);
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1], 4.0);
  EXPECT_DOUBLE_EQ(rs->rows[2].values[1], 2.0);
}

TEST_F(ExecutorTest, RowSelectAscendingDefault) {
  Executor executor(broker_);
  auto rs = executor.Execute(
      "SELECT metric FROM load ORDER BY metric LIMIT 2");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(rs->rows[1].values[0], 1.0);
}

TEST_F(ExecutorTest, MissingTableError) {
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT metric FROM nope");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.error().code(), ErrorCode::kNotFound);
}

TEST_F(ExecutorTest, EmptyTableAggregatesNaN) {
  broker_.CreateTopic("empty");
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT MAX(metric), COUNT(*) FROM empty");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(std::isnan(rs->rows[0].values[0]));
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1], 0.0);
}

// --- NaN: the rolling index and the scan agree ---

// MIN(metric) and MAX(metric) of `table`, once as written (the rolling
// index answers) and once with an always-true WHERE that forces a scan.
struct MinMaxPaths {
  std::vector<double> index;
  std::vector<double> scan;
};

MinMaxPaths MinMaxBothPaths(Executor& executor, const std::string& table) {
  MinMaxPaths out;
  const std::string select = "SELECT MIN(metric), MAX(metric) FROM " + table;
  auto profile = executor.Explain(select, /*analyze=*/false);
  EXPECT_TRUE(profile.ok());
  if (profile.ok()) {
    EXPECT_EQ(profile->vertices.at(0).strategy, "index");
  }
  auto index = executor.Execute(select);
  auto scan = executor.Execute(select + " WHERE timestamp >= 0");
  EXPECT_TRUE(index.ok());
  EXPECT_TRUE(scan.ok());
  if (index.ok()) out.index = index->rows.at(0).values;
  if (scan.ok()) out.scan = scan->rows.at(0).values;
  return out;
}

// Equal, or both NaN.
bool SameAnswer(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectMinMax(const MinMaxPaths& paths, double min, double max) {
  ASSERT_EQ(paths.index.size(), 2u);
  ASSERT_EQ(paths.scan.size(), 2u);
  const double want[2] = {min, max};
  for (int i = 0; i < 2; ++i) {
    const char* label = i == 0 ? "MIN " : "MAX ";
    EXPECT_TRUE(SameAnswer(paths.index[i], want[i]))
        << "index " << label << paths.index[i];
    EXPECT_TRUE(SameAnswer(paths.scan[i], want[i]))
        << "scan " << label << paths.scan[i];
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void PublishValues(Broker& broker, const std::string& topic,
                   const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const TimeNs ts = Seconds(static_cast<double>(i + 1));
    ASSERT_TRUE(broker
                    .Publish(topic, kLocalNode, ts,
                             Sample{ts, values[i], Provenance::kMeasured})
                    .ok());
  }
}

TEST_F(ExecutorTest, MinMaxIgnoreNaNOnIndexAndScan) {
  broker_.CreateTopic("nan_mid");
  PublishValues(broker_, "nan_mid", {1.0, kNaN, 2.0});
  Executor executor(broker_);
  ExpectMinMax(MinMaxBothPaths(executor, "nan_mid"), 1.0, 2.0);
}

TEST_F(ExecutorTest, MinMaxOfAllNaNWindowIsNaNOnIndexAndScan) {
  broker_.CreateTopic("nan_all");
  PublishValues(broker_, "nan_all", {kNaN, kNaN});
  Executor executor(broker_);
  ExpectMinMax(MinMaxBothPaths(executor, "nan_all"), kNaN, kNaN);
}

// A 4-row ring: after every append the index agrees with the scan and
// with the window's true min/max, before and after the NaN is evicted.
TEST_F(ExecutorTest, MinMaxAgreeWhileNaNPassesThroughRing) {
  broker_.CreateTopic("nan_ring", kLocalNode, /*capacity=*/4);
  const std::vector<double> values = {1.0, kNaN, 7.0, 3.0, 2.0, 0.0, 5.0};
  Executor executor(broker_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const TimeNs ts = Seconds(static_cast<double>(i + 1));
    ASSERT_TRUE(broker_
                    .Publish("nan_ring", kLocalNode, ts,
                             Sample{ts, values[i], Provenance::kMeasured})
                    .ok());
    double min = kNaN;
    double max = kNaN;
    for (std::size_t j = i < 3 ? 0 : i - 3; j <= i; ++j) {
      if (std::isnan(values[j])) continue;
      min = std::isnan(min) ? values[j] : std::min(min, values[j]);
      max = std::isnan(max) ? values[j] : std::max(max, values[j]);
    }
    SCOPED_TRACE(testing::Message() << "after append " << i);
    ExpectMinMax(MinMaxBothPaths(executor, "nan_ring"), min, max);
  }
}

// --- SUM over NaN/±inf and MIN/MAX over ±0.0: one rule on both paths ---

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Both NaN, or the same bits (so +0.0 is not -0.0).
bool SameSum(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || SameBits(a, b);
}

// `items` of `table`, once as written (the rolling index answers) and once
// with an always-true WHERE that forces a scan.
MinMaxPaths BothPaths(Executor& executor, const std::string& items,
                      const std::string& table) {
  MinMaxPaths out;
  const std::string select = "SELECT " + items + " FROM " + table;
  auto index = executor.Execute(select);
  auto scan = executor.Execute(select + " WHERE timestamp >= 0");
  EXPECT_TRUE(index.ok());
  EXPECT_TRUE(scan.ok());
  if (index.ok()) out.index = index->rows.at(0).values;
  if (scan.ok()) out.scan = scan->rows.at(0).values;
  return out;
}

// SUM(metric) after each append to a 4-row ring, on both paths. A NaN or
// an infinity counts while it is in the ring and is gone once it leaves.
void ExpectSumsThroughRing(Executor& executor, Broker& broker,
                           const std::string& topic,
                           const std::vector<double>& values,
                           const std::vector<double>& sums) {
  broker.CreateTopic(topic, kLocalNode, /*capacity=*/4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const TimeNs ts = Seconds(static_cast<double>(i + 1));
    ASSERT_TRUE(broker
                    .Publish(topic, kLocalNode, ts,
                             Sample{ts, values[i], Provenance::kMeasured})
                    .ok());
    const MinMaxPaths sum = BothPaths(executor, "SUM(metric)", topic);
    ASSERT_EQ(sum.index.size(), 1u);
    ASSERT_EQ(sum.scan.size(), 1u);
    EXPECT_TRUE(SameSum(sum.index[0], sums[i]))
        << "after append " << i << ": index SUM " << sum.index[0];
    EXPECT_TRUE(SameSum(sum.scan[0], sums[i]))
        << "after append " << i << ": scan SUM " << sum.scan[0];
  }
}

// A NaN or an infinity that has left the ring no longer reaches the index's
// SUM: added into one rolling double it would leave NaN behind for good,
// while a scan of the same ring answers 22 and 14.
TEST_F(ExecutorTest, EvictedInfinityLeavesTheIndexSum) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Executor executor(broker_);
  ExpectSumsThroughRing(executor, broker_, "inf_ring",
                        {1, 2, kInf, 3, 4, 5, 6, 7},
                        {1, 3, kInf, kInf, kInf, kInf, 18, 22});
  // Both infinities in the ring sum to NaN, and one sign leaves.
  ExpectSumsThroughRing(executor, broker_, "both_inf_ring",
                        {kInf, -kInf, 1, 2, 3, 4},
                        {kInf, kNaN, kNaN, kNaN, -kInf, 10});
}

TEST_F(ExecutorTest, EvictedNaNLeavesTheIndexSum) {
  Executor executor(broker_);
  ExpectSumsThroughRing(executor, broker_, "nan_sum_ring",
                        {kNaN, 1, 2, 3, 4, 5}, {kNaN, kNaN, kNaN, kNaN, 10, 14});
}

// -0.0 orders below +0.0 on every path, as in the zone maps: MIN is -0.0
// and MAX is +0.0 whichever zero arrives first. Under plain == the index's
// wedges keep the later of two equal values and the scan the earlier, so
// the two paths would disagree on a ring fed +0.0 then -0.0.
TEST_F(ExecutorTest, SignedZerosOrderTheSameOnIndexAndScan) {
  Executor executor(broker_);
  const std::vector<std::vector<double>> feeds = {
      {0.0, -0.0}, {-0.0, 0.0}, {0.0, -0.0, 0.0}, {-0.0, 0.0, -0.0}};
  for (std::size_t f = 0; f < feeds.size(); ++f) {
    const std::string topic = "zeros" + std::to_string(f);
    broker_.CreateTopic(topic);
    PublishValues(broker_, topic, feeds[f]);
    const MinMaxPaths paths =
        BothPaths(executor, "MIN(metric), MAX(metric)", topic);
    ASSERT_EQ(paths.index.size(), 2u);
    ASSERT_EQ(paths.scan.size(), 2u);
    SCOPED_TRACE(topic);
    EXPECT_TRUE(SameBits(paths.index[0], -0.0)) << paths.index[0];
    EXPECT_TRUE(SameBits(paths.index[1], 0.0)) << paths.index[1];
    EXPECT_TRUE(SameBits(paths.scan[0], -0.0)) << paths.scan[0];
    EXPECT_TRUE(SameBits(paths.scan[1], 0.0)) << paths.scan[1];
  }
}

// --- ORDER BY over NaN keys: NaN last in both directions ---

std::vector<double> OrderedMetrics(Executor& executor,
                                   const std::string& query) {
  auto rs = executor.Execute(query);
  EXPECT_TRUE(rs.ok()) << query;
  std::vector<double> out;
  if (!rs.ok()) return out;
  for (const ResultRow& row : rs->rows) out.push_back(row.values.at(0));
  return out;
}

void ExpectSameSequence(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& query) {
  ASSERT_EQ(got.size(), want.size()) << query;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], want[i]))
        << query << ": row " << i << " is " << got[i];
  }
}

TEST_F(ExecutorTest, OrderByPutsNaNKeysLastInBothDirections) {
  broker_.CreateTopic("nan_keys");
  PublishValues(broker_, "nan_keys", {1.0, kNaN, 3.0, 2.0});
  Executor executor(broker_);
  const std::vector<double> asc = {1.0, 2.0, 3.0, kNaN};
  const std::vector<double> desc = {3.0, 2.0, 1.0, kNaN};
  for (std::size_t limit : {0u, 1u, 3u, 10u}) {
    std::string suffix = " LIMIT ";
    suffix += std::to_string(limit);
    const std::size_t take = std::min<std::size_t>(limit, asc.size());
    const std::string asc_query =
        "SELECT metric FROM nan_keys ORDER BY metric ASC" + suffix;
    ExpectSameSequence(OrderedMetrics(executor, asc_query),
                       {asc.begin(), asc.begin() + take}, asc_query);
    const std::string desc_query =
        "SELECT metric FROM nan_keys ORDER BY metric DESC" + suffix;
    ExpectSameSequence(OrderedMetrics(executor, desc_query),
                       {desc.begin(), desc.begin() + take}, desc_query);
  }
}

// Equal keys keep scan (id) order, NaN keys included.
TEST_F(ExecutorTest, OrderByTiesKeepIdOrder) {
  broker_.CreateTopic("ties");
  PublishValues(broker_, "ties", {2.0, kNaN, 1.0, 2.0, kNaN, 1.0});
  Executor executor(broker_);
  for (const char* dir : {"ASC", "DESC"}) {
    const std::string query =
        std::string("SELECT timestamp, metric FROM ties ORDER BY metric ") +
        dir;
    auto rs = executor.Execute(query);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->NumRows(), 6u);
    for (std::size_t i = 1; i < rs->NumRows(); ++i) {
      const auto& prev = rs->rows[i - 1].values;
      const auto& cur = rs->rows[i].values;
      if (SameAnswer(prev[1], cur[1])) {
        EXPECT_LT(prev[0], cur[0]) << query << ": tie at row " << i;
      }
    }
    EXPECT_TRUE(std::isnan(rs->rows[4].values[1])) << query;
    EXPECT_TRUE(std::isnan(rs->rows[5].values[1])) << query;
  }
}

// Timestamp bounds beyond int64 saturate: they neither wrap the range the
// tiers read nor empty it.
TEST_F(ExecutorTest, TimestampBoundsBeyondInt64Saturate) {
  broker_.CreateTopic("wide");
  for (int i = 0; i < 10; ++i) {
    const TimeNs ts = 1000 + i;
    ASSERT_TRUE(broker_
                    .Publish("wide", kLocalNode, ts,
                             Sample{ts, static_cast<double>(i),
                                    Provenance::kMeasured})
                    .ok());
  }
  Executor executor(broker_);
  const auto count = [&](const std::string& where) {
    auto rs = executor.Execute("SELECT COUNT(*) FROM wide WHERE " + where);
    EXPECT_TRUE(rs.ok()) << where;
    return rs.ok() ? rs->rows.at(0).values.at(0) : -1.0;
  };
  for (const char* where :
       {"timestamp < 1e30", "timestamp <= 9.3e18", "timestamp < +inf",
        "timestamp > -1e30", "timestamp >= -9.3e18", "timestamp > -inf"}) {
    EXPECT_EQ(count(where), 10.0) << where;
  }
  for (const char* where :
       {"timestamp > 1e30", "timestamp >= 9.3e18", "timestamp > +inf",
        "timestamp < -1e30", "timestamp < -inf"}) {
    EXPECT_EQ(count(where), 0.0) << where;
  }
  auto limited = executor.Execute(
      "SELECT metric FROM wide WHERE timestamp < 1e30 LIMIT 3");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->NumRows(), 3u);
}

TEST_F(ExecutorTest, LimitBeyondUint64ReturnsEveryRow) {
  Executor executor(broker_);
  for (const char* order : {"", " ORDER BY metric DESC"}) {
    const std::string query =
        std::string("SELECT metric FROM cap") + order + " LIMIT 1e30";
    auto rs = executor.Execute(query);
    ASSERT_TRUE(rs.ok()) << query;
    EXPECT_EQ(rs->NumRows(), 10u) << query;
  }
}

// Any wire client may stamp a row at INT64_MIN; its age overflows int64,
// so the answer's staleness saturates instead of wrapping to 0.
TEST_F(ExecutorTest, StalenessSaturatesForTimestampAtInt64Min) {
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  broker_.CreateTopic("ancient");
  ASSERT_TRUE(broker_
                  .Publish("ancient", kLocalNode, kMin,
                           Sample{kMin, 1.0, Provenance::kMeasured})
                  .ok());
  Executor executor(broker_);
  auto rs = executor.Execute("SELECT LAST(metric) FROM ancient");
  ASSERT_TRUE(rs.ok()) << rs.error().ToString();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0].staleness_ns, kMax);
  EXPECT_EQ(rs->max_staleness_ns, kMax);
  EXPECT_EQ(StalenessNs(kMin, kMax), 0);
  EXPECT_EQ(StalenessNs(5, 7), 0);
  EXPECT_EQ(StalenessNs(7, 5), 2);
}

TEST_F(ExecutorTest, ArchiveFallbackForHistoricalRange) {
  // Small in-memory window + archiver: old entries only in the archive.
  static TempWal archiver;
  broker_.CreateTopic("hist", kLocalNode, /*capacity=*/4, &archiver);
  for (int i = 0; i < 20; ++i) {
    broker_.Publish("hist", kLocalNode, Seconds(i),
                    Sample{Seconds(i), static_cast<double>(i),
                           Provenance::kMeasured});
  }
  Executor executor(broker_);
  // t in [0s, 9s] is entirely evicted from the 4-entry window.
  auto rs = executor.Execute(
      "SELECT COUNT(*) FROM hist WHERE timestamp >= 0 AND "
      "timestamp <= 9000000000");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 10.0);
}

// --- plan cache under topic churn ---

TEST_F(ExecutorTest, PlanCacheInvalidatedByTopicChurn) {
  Executor executor(broker_);
  broker_.CreateTopic("churn");
  broker_.Publish("churn", kLocalNode, Seconds(1),
                  Sample{Seconds(1), 1.0, Provenance::kMeasured});
  const std::string query = "SELECT LAST(metric) FROM churn";
  auto first = executor.Execute(query);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first->rows[0].values[0], 1.0);
  EXPECT_EQ(executor.PlanCacheSize(), 1u);

  // Drop and recreate the topic: the cached plan's handle now points at a
  // dead stream generation. Churn detection (registry version mismatch)
  // must re-resolve the handle, not answer from the stale stream.
  ASSERT_TRUE(broker_.RemoveTopic("churn").ok());
  broker_.CreateTopic("churn");
  broker_.Publish("churn", kLocalNode, Seconds(2),
                  Sample{Seconds(2), 2.0, Provenance::kMeasured});
  auto second = executor.Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->rows[0].values[0], 2.0);
  // The cached entry is refreshed in place, not duplicated.
  EXPECT_EQ(executor.PlanCacheSize(), 1u);
}

TEST_F(ExecutorTest, PlanCacheSurvivesRemovalAndLateRecreation) {
  Executor executor(broker_);
  broker_.CreateTopic("doomed");
  broker_.Publish("doomed", kLocalNode, Seconds(1),
                  Sample{Seconds(1), 7.0, Provenance::kMeasured});
  const std::string query = "SELECT COUNT(*) FROM doomed";
  ASSERT_TRUE(executor.Execute(query).ok());

  // Removal without recreation: the re-resolved plan errors cleanly
  // instead of dereferencing the dead handle.
  ASSERT_TRUE(broker_.RemoveTopic("doomed").ok());
  auto gone = executor.Execute(query);
  ASSERT_FALSE(gone.ok());

  // Late recreation: the same cached parse resolves against the new
  // stream on the next execution.
  broker_.CreateTopic("doomed");
  for (int i = 0; i < 3; ++i) {
    broker_.Publish("doomed", kLocalNode, Seconds(10 + i),
                    Sample{Seconds(10 + i), static_cast<double>(i),
                           Provenance::kMeasured});
  }
  auto back = executor.Execute(query);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->rows[0].values[0], 3.0);
}

TEST(ExecutorStandalone, EmptyQueryRejected) {
  Broker broker(RealClock::Instance());
  Executor executor(broker);
  Query query;
  EXPECT_FALSE(executor.ExecuteQuery(query).ok());
}

TEST(AstNames, Coverage) {
  EXPECT_STREQ(AggregateName(Aggregate::kMax), "MAX");
  EXPECT_STREQ(AggregateName(Aggregate::kNone), "");
  EXPECT_STREQ(ColumnName(Column::kTimestamp), "timestamp");
  EXPECT_STREQ(ColumnName(Column::kStar), "*");
}

}  // namespace
}  // namespace apollo::aqe
