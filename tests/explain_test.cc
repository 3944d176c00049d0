// AQE query profiler tests: EXPLAIN / EXPLAIN ANALYZE through both the
// Executor API and the ApolloService query surface. Verifies the rendered
// plan matches the executed plan (cache hit vs miss, chosen strategy),
// exact per-vertex row counts against a seeded graph, and that degraded
// vertices (FaultInjector-crashed) are flagged in the profile.
#include <gtest/gtest.h>

#include <string>

#include "apollo/apollo_service.h"
#include "aqe/executor.h"
#include "common/fault.h"
#include "pubsub/broker.h"
#include "temp_wal.h"

namespace apollo {
namespace {

using aqe::Executor;
using aqe::QueryProfile;

class ExplainTest : public testing::Test {
 protected:
  ExplainTest() : broker_(RealClock::Instance()), executor_(broker_) {
    // Seeded graph: 10 rows on "cap" (values 100..91), 5 rows on "load".
    broker_.CreateTopic("cap");
    for (int i = 0; i < 10; ++i) {
      broker_.Publish("cap", kLocalNode, Seconds(i),
                      Sample{Seconds(i), 100.0 - i, Provenance::kMeasured});
    }
    broker_.CreateTopic("load");
    for (int i = 0; i < 5; ++i) {
      broker_.Publish("load", kLocalNode, Seconds(i),
                      Sample{Seconds(i), i * 1.0, Provenance::kMeasured});
    }
  }

  Broker broker_;
  Executor executor_;
};

TEST_F(ExplainTest, StripExplainPrefix) {
  std::string_view rest;
  bool analyze = false;
  EXPECT_TRUE(Executor::StripExplainPrefix("EXPLAIN SELECT 1", rest, analyze));
  EXPECT_EQ(rest, "SELECT 1");
  EXPECT_FALSE(analyze);
  EXPECT_TRUE(Executor::StripExplainPrefix("  explain analyze SELECT x",
                                           rest, analyze));
  EXPECT_EQ(rest, "SELECT x");
  EXPECT_TRUE(analyze);
  EXPECT_FALSE(Executor::StripExplainPrefix("SELECT metric FROM t", rest,
                                            analyze));
  // EXPLAIN must be a whole word, not a prefix of an identifier.
  EXPECT_FALSE(Executor::StripExplainPrefix("EXPLAINER FROM t", rest,
                                            analyze));
}

TEST_F(ExplainTest, AnalyzeReportsExactRowCounts) {
  auto profile = executor_.Explain(
      "SELECT Timestamp, Metric FROM cap WHERE Metric >= 96", true);
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->analyzed);
  ASSERT_EQ(profile->vertices.size(), 1u);
  const auto& vertex = profile->vertices[0];
  EXPECT_EQ(vertex.topic, "cap");
  EXPECT_TRUE(vertex.resolved);
  EXPECT_EQ(vertex.strategy, "scan");
  EXPECT_EQ(vertex.rows_scanned, 10u);  // full window visited
  EXPECT_EQ(vertex.rows_matched, 5u);   // 100..96
  EXPECT_EQ(vertex.rows_returned, 5u);
  EXPECT_EQ(profile->total_rows, 5u);
  EXPECT_FALSE(vertex.degraded);
}

TEST_F(ExplainTest, AnalyzeUnionCountsPerVertex) {
  auto profile = executor_.Explain(
      "SELECT COUNT(*) FROM cap WHERE Metric >= 0 "
      "UNION SELECT COUNT(*) FROM load WHERE Metric >= 3",
      true);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->vertices.size(), 2u);
  EXPECT_EQ(profile->vertices[0].topic, "cap");
  EXPECT_EQ(profile->vertices[0].rows_scanned, 10u);
  EXPECT_EQ(profile->vertices[0].rows_matched, 10u);
  EXPECT_EQ(profile->vertices[1].topic, "load");
  EXPECT_EQ(profile->vertices[1].rows_scanned, 5u);
  EXPECT_EQ(profile->vertices[1].rows_matched, 2u);  // values 3, 4
  EXPECT_EQ(profile->total_rows, 2u);  // one aggregate row per branch
}

TEST_F(ExplainTest, StrategiesMatchExecutionPaths) {
  // Latest fast path.
  auto latest =
      executor_.Explain("SELECT MAX(Timestamp), Metric FROM cap", true);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->vertices[0].strategy, "latest");
  EXPECT_EQ(latest->vertices[0].rows_returned, 1u);

  // O(1) aggregate-index path (no WHERE, real aggregates).
  auto index = executor_.Explain("SELECT COUNT(*), AVG(Metric) FROM cap",
                                 true);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->vertices[0].strategy, "index");
  EXPECT_EQ(index->vertices[0].rows_matched, 10u);  // window count

  // Window scan (predicate forces it).
  auto scan = executor_.Explain(
      "SELECT AVG(Metric) FROM cap WHERE Timestamp >= 0", true);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->vertices[0].strategy, "scan");

  // Plan-only EXPLAIN predicts the same strategies without executing.
  auto planned =
      executor_.Explain("SELECT MAX(Timestamp), Metric FROM cap", false);
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->analyzed);
  EXPECT_EQ(planned->vertices[0].strategy, "latest");
  EXPECT_EQ(planned->vertices[0].rows_returned, 0u);  // not executed
}

TEST_F(ExplainTest, ScanPlusArchiveStrategy) {
  // 4-entry window + archiver: 16 of 20 rows live only in the archive.
  static TempWal archiver;
  broker_.CreateTopic("hist", kLocalNode, /*capacity=*/4, &archiver);
  for (int i = 0; i < 20; ++i) {
    broker_.Publish(
        "hist", kLocalNode, Seconds(i),
        Sample{Seconds(i), static_cast<double>(i), Provenance::kMeasured});
  }
  auto profile = executor_.Explain(
      "SELECT COUNT(*) FROM hist WHERE Timestamp >= 0 AND "
      "Timestamp <= 19000000000",
      true);
  ASSERT_TRUE(profile.ok());
  const auto& vertex = profile->vertices[0];
  EXPECT_EQ(vertex.strategy, "scan+archive");
  EXPECT_EQ(vertex.archive_rows, 16u);
  EXPECT_EQ(vertex.rows_scanned, 20u);  // archive + window
  EXPECT_EQ(vertex.rows_matched, 20u);
}

TEST_F(ExplainTest, PlanCacheHitVisibleInPlanText) {
  const std::string query = "SELECT LAST(Metric) FROM cap";
  auto first = executor_.Explain(query, true);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_NE(first->ToText().find("plan: cache miss"), std::string::npos);

  auto second = executor_.Explain(query, true);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_NE(second->ToText().find("plan: cache hit"), std::string::npos);
}

TEST_F(ExplainTest, ExecuteRoutesExplainPrefix) {
  auto rs = executor_.Execute(
      "EXPLAIN ANALYZE SELECT Timestamp FROM load WHERE Metric >= 2");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->columns.size(), 1u);
  EXPECT_EQ(rs->columns[0], "plan");
  ASSERT_GE(rs->NumRows(), 3u);  // header + plan line + vertex line
  const std::string text = [&] {
    std::string out;
    for (const auto& row : rs->rows) out += row.source + "\n";
    return out;
  }();
  EXPECT_NE(text.find("EXPLAIN ANALYZE SELECT Timestamp FROM load"),
            std::string::npos);
  EXPECT_NE(text.find("topic=load"), std::string::npos);
  EXPECT_NE(text.find("strategy=scan"), std::string::npos);
  EXPECT_NE(text.find("rows_scanned=5"), std::string::npos);
  EXPECT_NE(text.find("rows_matched=3"), std::string::npos);
  EXPECT_NE(text.find("total: rows=3"), std::string::npos);

  // Plan-only EXPLAIN omits execution stats.
  auto plan_only = executor_.Execute("EXPLAIN SELECT Timestamp FROM load");
  ASSERT_TRUE(plan_only.ok());
  std::string plan_text;
  for (const auto& row : plan_only->rows) plan_text += row.source + "\n";
  EXPECT_EQ(plan_text.find("rows_scanned"), std::string::npos);
  EXPECT_NE(plan_text.find("strategy=scan"), std::string::npos);
}

TEST_F(ExplainTest, ExplainParseErrorPropagates) {
  auto bad = executor_.Execute("EXPLAIN ANALYZE SELEKT nonsense");
  EXPECT_FALSE(bad.ok());
  auto missing = executor_.Explain("SELECT Metric FROM nope", true);
  EXPECT_FALSE(missing.ok());
}

// Degraded vertices must be flagged in the profile: crash a vertex via
// fault injection (same idiom as chaos_test), then EXPLAIN ANALYZE.
TEST(ExplainDegradedTest, DegradedVertexFlaggedInProfile) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.supervisor.check_interval = Millis(50);
  options.supervisor.stall_timeout = Millis(200);
  ApolloService service(options);

  MonitorHook hook;
  hook.metric_name = "m";
  hook.cost = 0;
  hook.read = [](TimeNs now) {
    return static_cast<double>(now % 1'000'003);
  };
  FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = Millis(10);
  ASSERT_TRUE(service.DeployFact(hook, deployment).ok());
  ASSERT_TRUE(service.RunFor(Millis(100)).ok());

  auto healthy = service.Explain("SELECT LAST(Metric) FROM m", true);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded);
  EXPECT_FALSE(healthy->vertices[0].degraded);

  FaultInjector injector(/*seed=*/7);
  service.AttachFaultInjector(&injector);
  FaultSpec crash;
  crash.site = FaultSite::kVertexPoll;
  crash.fire_on_hits = {0};
  injector.Arm(crash);
  ASSERT_TRUE(service.RunFor(Millis(20)).ok());

  auto degraded = service.Explain("SELECT LAST(Metric) FROM m", true);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  ASSERT_EQ(degraded->vertices.size(), 1u);
  EXPECT_TRUE(degraded->vertices[0].degraded);
  EXPECT_GT(degraded->vertices[0].staleness_ns, 0);
  EXPECT_NE(degraded->ToText().find("degraded=yes"), std::string::npos);

  // The service Query surface renders the same profile.
  auto rs = service.Query("EXPLAIN ANALYZE SELECT LAST(Metric) FROM m");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->degraded);
}

// A UNION whose first branch fails returns that branch's error, and no
// other branch is still reading the plan or writing the profile after
// Explain returns (under ASan a late writer is a heap-use-after-free). A
// default real-time service, 200 scan branches behind the missing topic.
TEST(ExplainFailedBranchTest, MissingFirstBranchAmongManyIsNotFound) {
  ApolloService service;
  ASSERT_TRUE(service.broker().CreateTopic("t").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(service.broker()
                    .Publish("t", kLocalNode, Seconds(i),
                             Sample{Seconds(i), static_cast<double>(i),
                                    Provenance::kMeasured})
                    .ok());
  }
  std::string query = "SELECT COUNT(*) FROM missing";
  for (int i = 0; i < 200; ++i) {
    query += " UNION SELECT metric FROM t WHERE metric > 1";
  }

  auto explained = service.Query("EXPLAIN ANALYZE " + query);
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.error().code(), ErrorCode::kNotFound);
  auto answered = service.Query(query);
  ASSERT_FALSE(answered.ok());
  EXPECT_EQ(answered.error().code(), ErrorCode::kNotFound);

  auto count = service.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(count->rows[0].values[0], 100.0);
}

}  // namespace
}  // namespace apollo
