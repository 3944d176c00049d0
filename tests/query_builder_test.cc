#include <gtest/gtest.h>

#include "aqe/executor.h"
#include "aqe/query_builder.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "pubsub/broker.h"

namespace apollo::aqe {
namespace {

TEST(QueryBuilder, SingleSelect) {
  Query q = QueryBuilder()
                .Select(Aggregate::kMax, Column::kTimestamp)
                .Select(Column::kMetric)
                .From("capacity")
                .Build();
  ASSERT_EQ(q.selects.size(), 1u);
  EXPECT_EQ(q.selects[0].table, "capacity");
  ASSERT_EQ(q.selects[0].items.size(), 2u);
  EXPECT_EQ(q.selects[0].items[0].aggregate, Aggregate::kMax);
}

TEST(QueryBuilder, UnionBranches) {
  Query q = QueryBuilder()
                .Select(Column::kMetric)
                .From("a")
                .Union()
                .Select(Column::kMetric)
                .From("b")
                .Build();
  ASSERT_EQ(q.selects.size(), 2u);
  EXPECT_EQ(q.selects[1].table, "b");
}

TEST(QueryBuilder, WhereOrderLimit) {
  Query q = QueryBuilder()
                .Select(Column::kTimestamp)
                .Select(Column::kMetric)
                .From("t")
                .WhereTimeRange(Seconds(1), Seconds(9))
                .WhereMeasuredOnly()
                .OrderByColumn(Column::kMetric, /*descending=*/true)
                .Limit(5)
                .Build();
  const Select& s = q.selects[0];
  ASSERT_EQ(s.where.size(), 3u);
  EXPECT_EQ(s.where[0].op, CompareOp::kGe);
  EXPECT_EQ(s.where[2].column, Column::kPredicted);
  ASSERT_TRUE(s.order_by.has_value());
  EXPECT_TRUE(s.order_by->descending);
  EXPECT_EQ(s.limit.value(), 5u);
}

TEST(QueryBuilder, LatestValueQueryShape) {
  Query q = LatestValueQuery({"x", "y", "z"});
  ASSERT_EQ(q.selects.size(), 3u);
  for (const Select& s : q.selects) {
    ASSERT_EQ(s.items.size(), 2u);
    EXPECT_EQ(s.items[0].aggregate, Aggregate::kMax);
    EXPECT_EQ(s.items[0].column, Column::kTimestamp);
    EXPECT_EQ(s.items[1].aggregate, Aggregate::kNone);
  }
}

TEST(QueryBuilder, ToStringRoundTripsThroughParser) {
  Query original = QueryBuilder()
                       .Select(Aggregate::kMax, Column::kTimestamp)
                       .Select(Column::kMetric)
                       .From("pfs_capacity")
                       .WhereTimeRange(0, Seconds(100))
                       .Union()
                       .Select(Aggregate::kCount, Column::kStar)
                       .From("node_1_load")
                       .OrderByColumn(Column::kTimestamp)
                       .Limit(3)
                       .Build();
  const std::string text = ToString(original);
  auto reparsed = Parse(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  ASSERT_EQ(reparsed->selects.size(), original.selects.size());
  for (std::size_t i = 0; i < original.selects.size(); ++i) {
    const Select& a = original.selects[i];
    const Select& b = reparsed->selects[i];
    EXPECT_EQ(a.table, b.table);
    EXPECT_EQ(a.items.size(), b.items.size());
    EXPECT_EQ(a.where.size(), b.where.size());
    EXPECT_EQ(a.limit, b.limit);
    EXPECT_EQ(a.order_by.has_value(), b.order_by.has_value());
  }
}

TEST(QueryBuilder, BuiltQueryExecutes) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("m");
  for (int i = 0; i < 5; ++i) {
    broker.Publish("m", kLocalNode, Seconds(i),
                   Sample{Seconds(i), i * 2.0, Provenance::kMeasured});
  }
  Executor executor(broker);
  auto rs = executor.ExecuteQuery(LatestValueQuery({"m"}));
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1], 8.0);
}

}  // namespace
}  // namespace apollo::aqe

namespace apollo {
namespace {

// --- LatencyHistogram ---

TEST(LatencyHistogram, EmptyDefaults) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.PercentileNs(50), 0);
  EXPECT_EQ(h.MeanNs(), 0.0);
  EXPECT_EQ(h.MinNs(), 0);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.MinNs(), 1000);
  EXPECT_EQ(h.MaxNs(), 1000);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 1000.0);
  // Log-bucket resolution: percentile within 2x.
  EXPECT_GE(h.PercentileNs(50), 512);
  EXPECT_LE(h.PercentileNs(50), 2048);
}

TEST(LatencyHistogram, PercentilesOrdered) {
  LatencyHistogram h;
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<std::int64_t>(rng.Exponential(1e-5)));
  }
  EXPECT_LE(h.PercentileNs(50), h.PercentileNs(90));
  EXPECT_LE(h.PercentileNs(90), h.PercentileNs(99));
  EXPECT_LE(h.PercentileNs(99), h.MaxNs() * 2);
}

TEST(LatencyHistogram, PercentileWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(10'000);  // all in one bucket
  const std::int64_t p50 = h.PercentileNs(50);
  EXPECT_GE(p50, 8192);
  EXPECT_LE(p50, 16384);
}

TEST(LatencyHistogram, ClampsBelowOne) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.MinNs(), 1);
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a, b;
  a.Record(100);
  b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.MinNs(), 100);
  EXPECT_EQ(a.MaxNs(), 1'000'000);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.Record(5000);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MaxNs(), 0);
}

TEST(LatencyHistogram, SummaryFormats) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(12'000);
  const std::string summary = h.Summary();
  EXPECT_NE(summary.find("n=100"), std::string::npos);
  EXPECT_NE(summary.find("us"), std::string::npos);
}

}  // namespace
}  // namespace apollo
