// Edge cases and failure-path coverage across modules.
#include <gtest/gtest.h>

#include "aqe/executor.h"
#include "cluster/cluster.h"
#include "middleware/hcompress.h"
#include "middleware/hdre.h"
#include "pubsub/broker.h"
#include "score/score_graph.h"

namespace apollo {
namespace {

// Remote query access charges network latency to a virtual clock.
TEST(AqeEdge, RemoteTopicAccessChargesLatencyInSimTime) {
  SimClock clock;
  auto network = std::make_shared<UniformNetwork>(Millis(1));
  Broker broker(clock, network);
  broker.CreateTopic("remote", /*home_node=*/5);
  broker.Publish("remote", 5, 0, Sample{0, 1.0, Provenance::kMeasured});

  aqe::Executor executor(broker, aqe::ExecutorOptions{/*client=*/7});
  const TimeNs before = clock.Now();
  auto rs = executor.Execute("SELECT MAX(Timestamp), metric FROM remote");
  ASSERT_TRUE(rs.ok());
  EXPECT_GE(clock.Now() - before, Millis(1));  // one hop charged
}

TEST(AqeEdge, LocalTopicAccessFree) {
  SimClock clock;
  auto network = std::make_shared<UniformNetwork>(Millis(1));
  Broker broker(clock, network);
  broker.CreateTopic("local", /*home_node=*/7);
  broker.Publish("local", 7, 0, Sample{0, 1.0, Provenance::kMeasured});
  aqe::Executor executor(broker, aqe::ExecutorOptions{7});
  const TimeNs before = clock.Now();
  ASSERT_TRUE(executor.Execute("SELECT MAX(Timestamp), metric FROM local")
                  .ok());
  EXPECT_EQ(clock.Now(), before);
}

TEST(AqeEdge, FastPathAndScanPathAgreeOnLatestValue) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("t");
  for (int i = 0; i < 50; ++i) {
    broker.Publish("t", kLocalNode, Seconds(i),
                   Sample{Seconds(i), i * 3.0, Provenance::kMeasured});
  }
  aqe::Executor executor(broker);
  auto fast = executor.Execute("SELECT MAX(Timestamp), metric FROM t");
  auto scan = executor.Execute(
      "SELECT MAX(Timestamp), LAST(metric) FROM t WHERE timestamp >= 0");
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(fast->rows[0].values, scan->rows[0].values);
}

TEST(AqeEdge, FastPathOnEmptyTopicReturnsNaN) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("empty");
  aqe::Executor executor(broker);
  auto rs = executor.Execute("SELECT MAX(Timestamp), metric FROM empty");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_TRUE(std::isnan(rs->rows[0].values[0]));
  EXPECT_TRUE(std::isnan(rs->rows[0].values[1]));
}

// HDRE diverts to a dramatically closer replication set.
TEST(MiddlewareEdge, HdreDivertsToMuchCloserSet) {
  using namespace middleware;
  ClusterConfig config;
  config.compute_nodes = 2;
  config.storage_nodes = 2;
  auto cluster = Cluster::MakeAresLike(config);
  auto tiers = BuildHermesTiers(*cluster);
  std::vector<ReplicationSet> sets(2);
  sets[0].targets = {tiers[1].targets[0]};
  sets[1].targets = {tiers[1].targets[1]};

  // Latency oracle: set 0's node is 10x farther than set 1's.
  LatencyFn latency = [&tiers](NodeId, NodeId target) {
    return target == tiers[1].targets[0].node ? Millis(10) : Millis(0.5);
  };
  Hdre engine(std::move(sets), ReplicationPolicy::kApolloAware, 1,
              DirectCapacityFn(), latency);
  // Cursor starts at set 0, but set 1 is >2x closer: divert.
  ASSERT_TRUE(engine.Write(1 << 20, /*writer=*/0, 0).ok());
  EXPECT_EQ(tiers[1].targets[1].device->UsedBytes(), 1u << 20);
  EXPECT_EQ(tiers[1].targets[0].device->UsedBytes(), 0u);
}

TEST(MiddlewareEdge, HcompressExhaustedTiersError) {
  using namespace middleware;
  ClusterConfig config;
  config.compute_nodes = 1;
  config.storage_nodes = 1;
  auto cluster = Cluster::MakeAresLike(config);
  for (const auto& node : cluster->nodes()) {
    for (const auto& device : node->devices()) {
      device->Reserve(device->RemainingBytes());
    }
  }
  Hcompress engine(BuildHermesTiers(*cluster), CompressionPolicy::kNone);
  auto result = engine.Write(1 << 20, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kResourceExhausted);
}

// ScoreGraph: removing an upstream vertex leaves downstream insights
// running on the surviving stream data (documented behavior).
TEST(ScoreGraphEdge, RemoveUpstreamKeepsDownstreamAlive) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  Broker broker(clock);
  ScoreGraph graph(broker);

  int calls = 0;
  FactVertexConfig fact_config;
  fact_config.topic = "src";
  auto fact = std::make_unique<FactVertex>(
      broker,
      MonitorHook{"src",
                  [&calls](TimeNs) {
                    ++calls;
                    return 5.0;
                  },
                  0},
      std::make_unique<FixedInterval>(Seconds(1)), fact_config);
  ASSERT_TRUE(graph.AddFact(std::move(fact), &loop).ok());

  InsightVertexConfig insight_config;
  insight_config.topic = "derived";
  insight_config.upstream = {"src"};
  auto insight = std::make_unique<InsightVertex>(broker, SumInsight(),
                                                 insight_config);
  auto deployed = graph.AddInsight(std::move(insight), &loop);
  ASSERT_TRUE(deployed.ok());

  loop.Run(Seconds(3));
  ASSERT_TRUE(graph.Remove("src").ok());
  loop.Run(Seconds(6));  // downstream keeps serving the last known value
  ASSERT_TRUE((*deployed)->LatestValue().has_value());
  EXPECT_DOUBLE_EQ(*(*deployed)->LatestValue(), 5.0);
}

TEST(ScoreGraphEdge, HammingDistanceOfExternalUpstreamIsOne) {
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  Broker broker(clock);
  broker.CreateTopic("external");  // stream without a SCoRe vertex
  ScoreGraph graph(broker);
  InsightVertexConfig config;
  config.topic = "over_external";
  config.upstream = {"external"};
  ASSERT_TRUE(graph
                  .AddInsight(std::make_unique<InsightVertex>(
                      broker, SumInsight(), config))
                  .ok());
  auto distance = graph.HammingDistance("over_external");
  ASSERT_TRUE(distance.ok());
  EXPECT_EQ(*distance, 1);  // external sources count as distance-0 inputs
}

}  // namespace
}  // namespace apollo
