#include <gtest/gtest.h>

#include <cmath>

#include "cluster/workloads.h"
#include "delphi/delphi_model.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"
#include "score/fact_vertex.h"
#include "score/insight_vertex.h"
#include "score/monitor_hook.h"
#include "score/score_graph.h"

namespace apollo {
namespace {

// Sim-mode rig: clock + auto-advancing loop + broker with free network.
struct SimRig {
  SimClock clock;
  EventLoop loop{clock, /*auto_advance=*/true, &clock};
  Broker broker{clock};
};

MonitorHook CountingHook(std::string name, int* counter, double value,
                         TimeNs cost = 0) {
  return MonitorHook{std::move(name),
                     [counter, value](TimeNs) {
                       ++*counter;
                       return value;
                     },
                     cost};
}

// A small trained Delphi model, shared by the prediction tests.
const delphi::DelphiModel& TrainedDelphi() {
  static const delphi::DelphiModel model = [] {
    delphi::DelphiConfig config;
    config.feature_config.train_length = 512;
    config.feature_config.epochs = 15;
    config.combiner_epochs = 20;
    config.composite_length = 512;
    return delphi::DelphiModel::Train(config);
  }();
  return model;
}

// --- MonitorHook library ---

TEST(MonitorHookLib, DeviceHooksReadMetrics) {
  Device device("dev0.nvme", DeviceSpec::Nvme());
  device.Write(1 << 20, 0);
  SimClock clock;
  auto capacity = CapacityRemainingHook(device, /*cost=*/0);
  EXPECT_EQ(capacity.metric_name, "dev0.nvme.capacity_remaining");
  EXPECT_DOUBLE_EQ(capacity.Invoke(clock),
                   static_cast<double>(device.RemainingBytes()));
  auto util = UtilizationHook(device, 0);
  EXPECT_GT(util.Invoke(clock), 0.0);
  auto health = DeviceHealthHook(device, 0);
  EXPECT_DOUBLE_EQ(health.Invoke(clock), 1.0);
}

TEST(MonitorHookLib, HookCostChargesClock) {
  Device device("d", DeviceSpec::Nvme());
  SimClock clock;
  auto hook = CapacityRemainingHook(device, Millis(3));
  hook.Invoke(clock);  // charges the probe duration to virtual time
  EXPECT_EQ(clock.Now(), Millis(3));
  hook.Invoke(clock);
  EXPECT_EQ(clock.Now(), Millis(6));
}

TEST(MonitorHookLib, NodeHooks) {
  Node node(0, "n", NodeSpec::AresCompute());
  node.SetCpuLoad(0.4);
  SimClock clock;
  EXPECT_DOUBLE_EQ(CpuLoadHook(node, 0).Invoke(clock), 0.4);
  EXPECT_DOUBLE_EQ(NodeOnlineHook(node, 0).Invoke(clock), 1.0);
  node.SetOnline(false);
  EXPECT_DOUBLE_EQ(NodeOnlineHook(node, 0).Invoke(clock), 0.0);
  EXPECT_GT(PowerHook(node, 0).Invoke(clock), 0.0);
}

TEST(MonitorHookLib, TraceReplayHookFollowsTrace) {
  HaccTraceConfig config;
  config.duration = Seconds(20);
  const CapacityTrace trace = MakeHaccCapacityTrace(config);
  SimClock clock;
  auto hook = TraceReplayHook(trace, "hacc", 0);
  EXPECT_DOUBLE_EQ(hook.Invoke(clock), config.initial_capacity);
  clock.AdvanceTo(Seconds(6));
  EXPECT_DOUBLE_EQ(hook.Invoke(clock), config.initial_capacity - 38000);
}

// --- FactVertex ---

TEST(FactVertex, FixedIntervalPolling) {
  SimRig rig;
  int calls = 0;
  FactVertexConfig config;
  config.topic = "m";
  config.publish_only_on_change = false;
  FactVertex vertex(rig.broker, CountingHook("m", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)),
                    config);
  ASSERT_TRUE(vertex.Deploy(rig.loop).ok());
  rig.loop.Run(Seconds(10));
  // Fires at t=0..10 inclusive -> 11 polls.
  EXPECT_EQ(calls, 11);
  EXPECT_EQ(vertex.stats().hook_calls, 11u);
  EXPECT_EQ(vertex.stats().published, 11u);

  auto stream = rig.broker.GetTopic("m");
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->Size(), 11u);
}

TEST(FactVertex, ChangeSuppressionSkipsDuplicates) {
  SimRig rig;
  int calls = 0;
  FactVertexConfig config;
  config.topic = "m";
  config.publish_only_on_change = true;
  FactVertex vertex(rig.broker, CountingHook("m", &calls, 7.0),
                    std::make_unique<FixedInterval>(Seconds(1)), config);
  ASSERT_TRUE(vertex.Deploy(rig.loop).ok());
  rig.loop.Run(Seconds(5));
  EXPECT_EQ(vertex.stats().published, 1u);  // constant value published once
  EXPECT_EQ(vertex.stats().suppressed, 5u);
}

TEST(FactVertex, DefaultTopicIsMetricName) {
  SimRig rig;
  int calls = 0;
  FactVertex vertex(rig.broker, CountingHook("node.cpu", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)),
                    FactVertexConfig{});
  ASSERT_TRUE(vertex.Deploy(rig.loop).ok());
  EXPECT_EQ(vertex.topic(), "node.cpu");
  EXPECT_TRUE(rig.broker.HasTopic("node.cpu"));
}

TEST(FactVertex, DoubleDeployFails) {
  SimRig rig;
  int calls = 0;
  FactVertex vertex(rig.broker, CountingHook("m", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)),
                    FactVertexConfig{});
  ASSERT_TRUE(vertex.Deploy(rig.loop).ok());
  EXPECT_FALSE(vertex.Deploy(rig.loop).ok());
}

TEST(FactVertex, UndeployStopsPolling) {
  SimRig rig;
  int calls = 0;
  FactVertexConfig config;
  config.topic = "m";
  FactVertex vertex(rig.broker, CountingHook("m", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)), config);
  vertex.Deploy(rig.loop);
  rig.loop.Run(Seconds(3));
  const int before = calls;
  vertex.Undeploy();
  rig.loop.Run(Seconds(10));
  EXPECT_EQ(calls, before);
}

TEST(FactVertex, AdaptiveIntervalStretchesOnStableMetric) {
  SimRig rig;
  int calls = 0;
  AimdConfig aimd;
  aimd.initial_interval = Seconds(1);
  aimd.additive_step = Seconds(1);
  aimd.max_interval = Seconds(60);
  aimd.change_threshold = 0.5;
  FactVertexConfig config;
  config.topic = "stable";
  FactVertex vertex(rig.broker, CountingHook("stable", &calls, 5.0),
                    std::make_unique<SimpleAimd>(aimd), config);
  vertex.Deploy(rig.loop);
  rig.loop.Run(Seconds(60));
  // Intervals: 1,1,2,3,... -> far fewer than 61 fixed-1s polls.
  EXPECT_LT(calls, 15);
  EXPECT_GT(vertex.CurrentInterval(), Seconds(5));
}

TEST(FactVertex, TracksChangingTraceWithAimd) {
  SimRig rig;
  HaccTraceConfig trace_config;
  trace_config.duration = Seconds(120);
  const CapacityTrace trace = MakeHaccCapacityTrace(trace_config);

  AimdConfig aimd;
  aimd.initial_interval = Seconds(1);
  aimd.additive_step = Seconds(1);
  aimd.max_interval = Seconds(30);
  aimd.change_threshold = 1.0;  // any write (38KB) triggers decrease
  FactVertexConfig config;
  config.topic = "hacc";
  FactVertex vertex(rig.broker, TraceReplayHook(trace, "hacc", 0),
                    std::make_unique<SimpleAimd>(aimd), config);
  vertex.Deploy(rig.loop);
  rig.loop.Run(Seconds(120));
  EXPECT_GT(vertex.stats().hook_calls, 20u);
  // Every published value must equal the trace at its poll timestamp.
  auto stream = rig.broker.GetTopic("hacc").value();
  std::uint64_t cursor = 0;
  for (const auto& entry : stream->Read(cursor)) {
    EXPECT_DOUBLE_EQ(entry.value.value, trace.ValueAt(entry.timestamp));
  }
}

TEST(FactVertex, DelphiFillsPredictionsBetweenPolls) {
  SimRig rig;
  int calls = 0;
  // Ramp metric so every poll publishes.
  MonitorHook hook{"ramp",
                   [&calls](TimeNs now) {
                     ++calls;
                     return static_cast<double>(now) / Seconds(1);
                   },
                   0};
  FactVertexConfig config;
  config.topic = "ramp";
  config.prediction_granularity = Seconds(1);
  FactVertex vertex(rig.broker, std::move(hook),
                    std::make_unique<FixedInterval>(Seconds(5)), config,
                    &TrainedDelphi());
  ASSERT_TRUE(vertex.HasPredictor());
  vertex.Deploy(rig.loop);
  rig.loop.Run(Seconds(60));

  EXPECT_EQ(vertex.stats().hook_calls, 13u);  // polls every 5s
  EXPECT_GT(vertex.stats().predictions, 20u);  // fills the gaps

  // The stream must contain both provenances.
  auto stream = rig.broker.GetTopic("ramp").value();
  std::uint64_t cursor = 0;
  int measured = 0, predicted = 0;
  for (const auto& entry : stream->Read(cursor)) {
    if (entry.value.measured()) ++measured;
    else ++predicted;
  }
  EXPECT_GT(measured, 0);
  EXPECT_GT(predicted, 0);
}

TEST(FactVertex, NoPredictorWhenGranularityZero) {
  static delphi::DelphiModel model = [] {
    delphi::DelphiConfig config;
    config.feature_config.train_length = 256;
    config.feature_config.epochs = 5;
    config.combiner_epochs = 5;
    config.composite_length = 256;
    return delphi::DelphiModel::Train(config);
  }();
  SimRig rig;
  int calls = 0;
  FactVertexConfig config;
  config.topic = "m";
  config.prediction_granularity = 0;
  FactVertex vertex(rig.broker, CountingHook("m", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)), config,
                    &model);
  EXPECT_FALSE(vertex.HasPredictor());
}

// --- InsightVertex ---

TEST(InsightVertex, SumsUpstreamFacts) {
  SimRig rig;
  int c1 = 0, c2 = 0;
  FactVertexConfig f1_config;
  f1_config.topic = "a";
  FactVertex f1(rig.broker, CountingHook("a", &c1, 10.0),
                std::make_unique<FixedInterval>(Seconds(1)), f1_config);
  FactVertexConfig f2_config;
  f2_config.topic = "b";
  FactVertex f2(rig.broker, CountingHook("b", &c2, 32.0),
                std::make_unique<FixedInterval>(Seconds(1)), f2_config);
  f1.Deploy(rig.loop);
  f2.Deploy(rig.loop);

  InsightVertexConfig config;
  config.topic = "sum";
  config.upstream = {"a", "b"};
  config.pull_interval = Seconds(1);
  InsightVertex insight(rig.broker, SumInsight(), config);
  ASSERT_TRUE(insight.Deploy(rig.loop).ok());

  rig.loop.Run(Seconds(5));
  ASSERT_TRUE(insight.LatestValue().has_value());
  EXPECT_DOUBLE_EQ(*insight.LatestValue(), 42.0);
  auto latest = rig.broker.LatestValue("sum", kLocalNode);
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(latest->value, 42.0);
}

TEST(InsightVertex, AggregationVariants) {
  const std::vector<double> values = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(SumInsight()(values, 0), 6.0);
  EXPECT_DOUBLE_EQ(MeanInsight()(values, 0), 2.0);
  EXPECT_DOUBLE_EQ(MinInsight()(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(MaxInsight()(values, 0), 3.0);
}

TEST(InsightVertex, NanWhileUpstreamMissing) {
  const std::vector<double> with_nan = {
      1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(SumInsight()(with_nan, 0)));
  EXPECT_TRUE(std::isnan(MeanInsight()(with_nan, 0)));
  EXPECT_TRUE(std::isnan(MinInsight()(with_nan, 0)));
  EXPECT_TRUE(std::isnan(MaxInsight()(with_nan, 0)));
}

TEST(InsightVertex, NoUpstreamRejectedAtDeploy) {
  SimRig rig;
  InsightVertexConfig config;
  config.topic = "empty";
  InsightVertex insight(rig.broker, SumInsight(), config);
  EXPECT_FALSE(insight.Deploy(rig.loop).ok());
}

TEST(InsightVertex, ChainedInsights) {
  SimRig rig;
  int calls = 0;
  FactVertexConfig f_config;
  f_config.topic = "fact";
  FactVertex fact(rig.broker, CountingHook("fact", &calls, 5.0),
                  std::make_unique<FixedInterval>(Seconds(1)), f_config);
  fact.Deploy(rig.loop);

  InsightVertexConfig mid_config;
  mid_config.topic = "mid";
  mid_config.upstream = {"fact"};
  InsightVertex mid(
      rig.broker,
      [](const std::vector<double>& latest, TimeNs) {
        return latest[0] * 2;
      },
      mid_config);
  mid.Deploy(rig.loop);

  InsightVertexConfig top_config;
  top_config.topic = "top";
  top_config.upstream = {"mid"};
  InsightVertex top(
      rig.broker,
      [](const std::vector<double>& latest, TimeNs) {
        return latest[0] + 1;
      },
      top_config);
  top.Deploy(rig.loop);

  rig.loop.Run(Seconds(5));
  ASSERT_TRUE(top.LatestValue().has_value());
  EXPECT_DOUBLE_EQ(*top.LatestValue(), 11.0);
}

// An insight fills in between pulls through the same Delphi path as a
// fact: every prediction is counted in apollo_delphi_predictions_total.
TEST(InsightVertex, DelphiPredictionsAreCounted) {
  SimRig rig;
  MonitorHook hook{"ramp",
                   [](TimeNs now) {
                     return static_cast<double>(now) / Seconds(1);
                   },
                   0};
  FactVertexConfig fact_config;
  fact_config.topic = "ramp";
  FactVertex fact(rig.broker, std::move(hook),
                  std::make_unique<FixedInterval>(Seconds(1)), fact_config);
  ASSERT_TRUE(fact.Deploy(rig.loop).ok());

  InsightVertexConfig config;
  config.topic = "ramp.sum";
  config.upstream = {"ramp"};
  config.pull_interval = Seconds(5);
  config.prediction_granularity = Seconds(1);
  InsightVertex insight(rig.broker, SumInsight(), config, &TrainedDelphi());
  ASSERT_TRUE(insight.Deploy(rig.loop).ok());

  obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "apollo_delphi_predictions_total");
  const std::uint64_t before = counter.Value();
  rig.loop.Run(Seconds(60));
  EXPECT_GT(insight.stats().predictions, 0u);
  EXPECT_EQ(counter.Value() - before, insight.stats().predictions);
}

TEST(InsightVertex, ConsumeStatsAccumulate) {
  SimRig rig;
  int calls = 0;
  FactVertexConfig f_config;
  f_config.topic = "f";
  FactVertex fact(rig.broker, CountingHook("f", &calls, 1.0),
                  std::make_unique<FixedInterval>(Seconds(1)), f_config);
  fact.Deploy(rig.loop);
  InsightVertexConfig config;
  config.topic = "i";
  config.upstream = {"f"};
  InsightVertex insight(rig.broker, SumInsight(), config);
  insight.Deploy(rig.loop);
  rig.loop.Run(Seconds(3));
  EXPECT_GT(insight.stats().published, 0u);
}

// --- Vertex lifecycle ---

// A vertex destroyed while deployed cancels its timer before its value
// source is torn down: the loop never fires into a destroyed fact or
// insight (under ASan that would be a heap-use-after-free).
TEST(VertexLifecycle, DestroyedWhileDeployedNeverFiresAgain) {
  SimRig rig;
  int calls = 0;
  {
    FactVertexConfig fact_config;
    fact_config.topic = "f";
    fact_config.publish_only_on_change = false;
    FactVertex fact(rig.broker, CountingHook("f", &calls, 1.0),
                    std::make_unique<FixedInterval>(Seconds(1)),
                    fact_config);
    InsightVertexConfig insight_config;
    insight_config.topic = "i";
    insight_config.upstream = {"f"};
    insight_config.publish_only_on_change = false;
    InsightVertex insight(rig.broker, SumInsight(), insight_config);
    ASSERT_TRUE(fact.Deploy(rig.loop).ok());
    ASSERT_TRUE(insight.Deploy(rig.loop).ok());
    rig.loop.Run(Seconds(3));
    ASSERT_GT(calls, 0);
    ASSERT_GT(insight.stats().published, 0u);
  }
  const int calls_before = calls;
  const std::uint64_t insight_next_id =
      rig.broker.GetTopic("i").value()->NextId();
  rig.loop.Run(Seconds(10));
  EXPECT_EQ(calls, calls_before);
  EXPECT_EQ(rig.broker.GetTopic("i").value()->NextId(), insight_next_id);
}

// --- ScoreGraph ---

std::unique_ptr<FactVertex> MakeFact(Broker& broker, const std::string& topic,
                                     int* counter) {
  FactVertexConfig config;
  config.topic = topic;
  return std::make_unique<FactVertex>(
      broker, CountingHook(topic, counter, 1.0),
      std::make_unique<FixedInterval>(Seconds(1)), config);
}

std::unique_ptr<InsightVertex> MakeInsight(
    Broker& broker, const std::string& topic,
    std::vector<std::string> upstream) {
  InsightVertexConfig config;
  config.topic = topic;
  config.upstream = std::move(upstream);
  return std::make_unique<InsightVertex>(broker, SumInsight(), config);
}

TEST(ScoreGraph, RegisterAndLookup) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  ASSERT_TRUE(graph.AddFact(MakeFact(rig.broker, "f1", &c)).ok());
  ASSERT_TRUE(graph.AddInsight(MakeInsight(rig.broker, "i1", {"f1"})).ok());
  EXPECT_TRUE(graph.Has("f1"));
  EXPECT_TRUE(graph.Has("i1"));
  EXPECT_TRUE(graph.FindFact("f1").ok());
  EXPECT_TRUE(graph.FindInsight("i1").ok());
  EXPECT_FALSE(graph.FindFact("i1").ok());
  EXPECT_EQ(graph.NumVertices(), 2u);
  EXPECT_EQ(graph.FactTopics(), (std::vector<std::string>{"f1"}));
  EXPECT_EQ(graph.InsightTopics(), (std::vector<std::string>{"i1"}));
}

TEST(ScoreGraph, DuplicateTopicRejected) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  ASSERT_TRUE(graph.AddFact(MakeFact(rig.broker, "dup", &c)).ok());
  auto second = graph.AddFact(MakeFact(rig.broker, "dup", &c));
  EXPECT_FALSE(second.ok());
  auto insight = graph.AddInsight(MakeInsight(rig.broker, "dup", {"x"}));
  EXPECT_FALSE(insight.ok());
}

TEST(ScoreGraph, CycleRejected) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  graph.AddFact(MakeFact(rig.broker, "f", &c));
  ASSERT_TRUE(graph.AddInsight(MakeInsight(rig.broker, "a", {"f", "b"})).ok());
  // b -> a would close a cycle a -> b -> a.
  auto cyclic = graph.AddInsight(MakeInsight(rig.broker, "b", {"a"}));
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ScoreGraph, SelfLoopRejected) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  auto self = graph.AddInsight(MakeInsight(rig.broker, "s", {"s"}));
  EXPECT_FALSE(self.ok());
}

TEST(ScoreGraph, HammingDistanceAndHeight) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  graph.AddFact(MakeFact(rig.broker, "f1", &c));
  graph.AddFact(MakeFact(rig.broker, "f2", &c));
  graph.AddInsight(MakeInsight(rig.broker, "l1", {"f1", "f2"}));
  graph.AddInsight(MakeInsight(rig.broker, "l2", {"l1"}));
  graph.AddInsight(MakeInsight(rig.broker, "l3", {"l2", "f1"}));

  EXPECT_EQ(*graph.HammingDistance("f1"), 0);
  EXPECT_EQ(*graph.HammingDistance("l1"), 1);
  EXPECT_EQ(*graph.HammingDistance("l2"), 2);
  EXPECT_EQ(*graph.HammingDistance("l3"), 3);
  EXPECT_EQ(graph.Height(), 3);
  EXPECT_FALSE(graph.HammingDistance("nope").ok());
}

TEST(ScoreGraph, RuntimeRemove) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  graph.AddFact(MakeFact(rig.broker, "f", &c), &rig.loop);
  rig.loop.Run(Seconds(2));
  const int before = c;
  ASSERT_TRUE(graph.Remove("f").ok());
  rig.loop.Run(Seconds(5));
  EXPECT_EQ(c, before);
  EXPECT_FALSE(graph.Has("f"));
  EXPECT_FALSE(graph.Remove("f").ok());
}

TEST(ScoreGraph, DeployAllAndUndeployAll) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c1 = 0, c2 = 0;
  graph.AddFact(MakeFact(rig.broker, "f1", &c1));
  graph.AddFact(MakeFact(rig.broker, "f2", &c2));
  graph.AddInsight(MakeInsight(rig.broker, "i", {"f1", "f2"}));
  ASSERT_TRUE(graph.DeployAll(rig.loop).ok());
  rig.loop.Run(Seconds(3));
  EXPECT_GT(c1, 0);
  EXPECT_GT(c2, 0);
  graph.UndeployAll();
  const int snapshot = c1 + c2;
  rig.loop.Run(Seconds(10));
  EXPECT_EQ(c1 + c2, snapshot);
}

TEST(ScoreGraph, ToDotExportsTopology) {
  SimRig rig;
  ScoreGraph graph(rig.broker);
  int c = 0;
  graph.AddFact(MakeFact(rig.broker, "f1", &c));
  graph.AddInsight(MakeInsight(rig.broker, "i1", {"f1"}));
  const std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("digraph score"), std::string::npos);
  EXPECT_NE(dot.find("\"f1\" [shape=box]"), std::string::npos);
  EXPECT_NE(dot.find("\"i1\" [shape=ellipse]"), std::string::npos);
  EXPECT_NE(dot.find("\"f1\" -> \"i1\""), std::string::npos);
}

TEST(ScoreGraph, Figure2UseCase) {
  // The paper's Figure 2: per-device capacity facts, per-node aggregation
  // insights, and a cluster-total insight at the top.
  SimRig rig;
  ScoreGraph graph(rig.broker);

  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 2;
  cluster_config.storage_nodes = 1;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  std::vector<std::string> node_insights;
  for (Node* node : cluster->ComputeNodes()) {
    std::vector<std::string> fact_topics;
    for (const auto& device : node->devices()) {
      if (device->spec().type == DeviceType::kRam) continue;
      FactVertexConfig config;
      config.topic = device->name() + ".capacity";
      config.publish_only_on_change = false;
      auto vertex = std::make_unique<FactVertex>(
          rig.broker, CapacityRemainingHook(*device, 0),
          std::make_unique<FixedInterval>(Seconds(1)), config);
      ASSERT_TRUE(graph.AddFact(std::move(vertex), &rig.loop).ok());
      fact_topics.push_back(config.topic);
    }
    const std::string insight_topic = node->name() + ".total_capacity";
    ASSERT_TRUE(graph
                    .AddInsight(MakeInsight(rig.broker, insight_topic,
                                            fact_topics),
                                &rig.loop)
                    .ok());
    node_insights.push_back(insight_topic);
  }
  ASSERT_TRUE(
      graph
          .AddInsight(MakeInsight(rig.broker, "cluster.total", node_insights),
                      &rig.loop)
          .ok());

  rig.loop.Run(Seconds(5));

  auto total = rig.broker.LatestValue("cluster.total", kLocalNode);
  ASSERT_TRUE(total.ok());
  const double expected = 2.0 * static_cast<double>(250ULL << 30);
  EXPECT_DOUBLE_EQ(total->value, expected);
  EXPECT_EQ(graph.Height(), 2);
}

}  // namespace
}  // namespace apollo
