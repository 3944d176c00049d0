// End-to-end integration scenarios across the whole stack: cluster ->
// monitor hooks -> SCoRe vertices -> pub-sub -> AQE -> middleware.
#include <gtest/gtest.h>

#include <cmath>

#include "apollo/apollo_service.h"
#include "baselines/ldms_like.h"
#include "cluster/cluster.h"
#include "cluster/workloads.h"
#include "insights/curations.h"
#include "middleware/apps.h"
#include "middleware/hdpe.h"
#include "temp_wal.h"

namespace apollo {
namespace {

ApolloOptions SimOptions() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  return options;
}

// The paper's Figure 2 scenario, wired through the public facade: device
// capacity facts -> per-node insights -> cluster-total insight, queried
// via AQE while I/O mutates the devices.
TEST(Integration, Figure2ThroughServiceFacade) {
  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 2;
  cluster_config.storage_nodes = 1;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  ApolloService apollo(SimOptions());
  std::vector<std::string> node_totals;
  for (const auto& node : cluster->nodes()) {
    std::vector<std::string> device_topics;
    for (const auto& device : node->devices()) {
      if (device->spec().type == DeviceType::kRam) continue;
      FactDeployment deployment;
      deployment.topic = device->name() + ".cap";
      deployment.controller = "simple_aimd";
      deployment.aimd.initial_interval = Seconds(1);
      deployment.aimd.additive_step = Seconds(1);
      deployment.aimd.max_interval = Seconds(8);
      deployment.aimd.change_threshold = 1024.0;
      deployment.publish_only_on_change = false;
      ASSERT_TRUE(
          apollo.DeployFact(CapacityRemainingHook(*device, 0), deployment)
              .ok());
      device_topics.push_back(deployment.topic);
    }
    InsightVertexConfig per_node;
    per_node.topic = node->name() + ".total";
    per_node.upstream = device_topics;
    ASSERT_TRUE(apollo.DeployInsight(per_node, SumInsight()).ok());
    node_totals.push_back(per_node.topic);
  }
  InsightVertexConfig total;
  total.topic = "cluster.total";
  total.upstream = node_totals;
  ASSERT_TRUE(apollo.DeployInsight(total, SumInsight()).ok());

  apollo.RunFor(Seconds(5));
  const double before = *apollo.LatestValue("cluster.total");

  // 1GB lands on one NVMe; the total must reflect it after propagation.
  Device& nvme = **cluster->FindDevice("compute0.nvme");
  nvme.Write(1ULL << 30, apollo.clock().Now());
  apollo.RunFor(Seconds(20));
  const double after = *apollo.LatestValue("cluster.total");
  EXPECT_NEAR(before - after, static_cast<double>(1ULL << 30), 1.0);

  // And the AQE sees consistent per-table latest values.
  auto rs = apollo.Query(
      "SELECT MAX(Timestamp), metric FROM cluster.total UNION "
      "SELECT MAX(Timestamp), metric FROM compute0.nvme.cap");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1], after);
}

TEST(Integration, RuntimeRegisterUnregisterWhileRunning) {
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());

  FactDeployment deployment;
  deployment.topic = "m1";
  ASSERT_TRUE(
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment).ok());
  apollo.RunFor(Seconds(3));

  // Register a second vertex mid-flight.
  FactDeployment second;
  second.topic = "m2";
  ASSERT_TRUE(
      apollo.DeployFact(UtilizationHook(device, 0), second).ok());
  apollo.RunFor(Seconds(3));
  EXPECT_TRUE(apollo.LatestValue("m2").ok());

  // Unregister the first; its stream stays queryable (historical data).
  ASSERT_TRUE(apollo.Undeploy("m1").ok());
  apollo.RunFor(Seconds(3));
  EXPECT_TRUE(apollo.LatestValue("m1").ok());
  EXPECT_FALSE(apollo.graph().Has("m1"));
  EXPECT_TRUE(apollo.graph().Has("m2"));
}

TEST(Integration, NodeFailureVisibleThroughAvailabilityInsight) {
  ClusterConfig config;
  config.compute_nodes = 3;
  config.storage_nodes = 0;
  auto cluster = Cluster::MakeAresLike(config);

  ApolloService apollo(SimOptions());
  FactDeployment deployment;
  deployment.topic = "cluster.available";
  deployment.controller = "fixed";
  deployment.fixed_interval = Seconds(1);
  ASSERT_TRUE(apollo
                  .DeployFact(insights::AvailableNodeCountHook(*cluster, 0),
                              deployment)
                  .ok());
  apollo.RunFor(Seconds(2));
  EXPECT_DOUBLE_EQ(*apollo.LatestValue("cluster.available"), 3.0);

  (*cluster->FindNode(1))->SetOnline(false);
  apollo.RunFor(Seconds(2));
  EXPECT_DOUBLE_EQ(*apollo.LatestValue("cluster.available"), 2.0);

  (*cluster->FindNode(1))->SetOnline(true);
  apollo.RunFor(Seconds(2));
  EXPECT_DOUBLE_EQ(*apollo.LatestValue("cluster.available"), 3.0);
}

TEST(Integration, ArchiverPreservesHistoryBeyondWindow) {
  ApolloService apollo(SimOptions());
  static TempWal archiver;

  // Tiny in-memory window so history spills to the archive quickly.
  auto created =
      apollo.broker().CreateTopic("deep", kLocalNode, 8, &archiver);
  ASSERT_TRUE(created.ok());
  for (int i = 0; i < 100; ++i) {
    apollo.broker().Publish("deep", kLocalNode, Seconds(i),
                            Sample{Seconds(i), static_cast<double>(i),
                                   Provenance::kMeasured});
  }
  // A historical range query must recover archived rows.
  auto rs = apollo.Query(
      "SELECT COUNT(*) FROM deep WHERE timestamp >= 0 AND timestamp <= "
      "49000000000");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 50.0);
  EXPECT_GT(archiver.Count(), 0u);
}

TEST(Integration, MiddlewareConsumesMonitoredCapacity) {
  // An HDPE whose capacity function reads from Apollo topics (not the
  // devices) still avoids flushes, even with slightly stale data.
  ClusterConfig config;
  config.compute_nodes = 2;
  config.storage_nodes = 2;
  auto cluster = Cluster::MakeAresLike(config);
  for (Device* d : cluster->DevicesOfType(DeviceType::kNvme)) {
    d->Reserve(d->RemainingBytes() - (1ULL << 30));
  }

  ApolloService apollo(SimOptions());
  for (Device* d : cluster->DevicesOfType(DeviceType::kNvme)) {
    FactDeployment deployment;
    deployment.topic = d->name() + ".remaining";
    deployment.controller = "fixed";
    deployment.fixed_interval = Millis(500);
    deployment.publish_only_on_change = false;
    ASSERT_TRUE(
        apollo.DeployFact(CapacityRemainingHook(*d, 0), deployment).ok());
  }
  apollo.RunFor(Seconds(1));

  middleware::CapacityFn monitored =
      [&apollo](const middleware::BufferingTarget& target)
      -> std::optional<double> {
    auto value = apollo.LatestValue(target.device->name() + ".remaining");
    if (!value.ok()) return std::nullopt;
    return *value;
  };
  middleware::Hdpe engine(middleware::BuildHermesTiers(*cluster),
                          middleware::PlacementPolicy::kCapacityAware,
                          monitored);
  TimeNs now = apollo.clock().Now();
  for (int i = 0; i < 32; ++i) {
    auto end = engine.Write(64 << 20, now);
    ASSERT_TRUE(end.ok());
    apollo.RunUntil(*end);
    now = *end;
  }
  // 2GB of writes into 2GB of NVMe headroom + SSD spill, guided only by
  // monitored values: no hard failures and minimal stalls.
  EXPECT_EQ(engine.stats().requests, 32u);
  EXPECT_LE(engine.stats().stalls, 2u);
}

TEST(Integration, ApolloAndLdmsSeeTheSameMetric) {
  // Both monitoring stacks sample the same hook; their latest values agree
  // (Apollo via pub-sub, LDMS via flat-file scan).
  SimClock clock;
  EventLoop loop(clock, true, &clock);
  Broker broker(clock);
  baselines::LdmsLikeMonitor ldms(loop, Seconds(1));

  double metric_value = 42.0;
  MonitorHook hook{"shared",
                   [&metric_value](TimeNs) { return metric_value; }, 0};

  FactVertexConfig config;
  config.topic = "shared_apollo";
  config.publish_only_on_change = false;
  FactVertex vertex(broker, hook, std::make_unique<FixedInterval>(Seconds(1)),
                    config);
  ASSERT_TRUE(vertex.Deploy(loop).ok());
  ASSERT_TRUE(ldms.AddSampler(hook).ok());

  loop.Run(Seconds(3));
  metric_value = 77.0;
  loop.Run(Seconds(6));

  auto apollo_latest = broker.LatestValue("shared_apollo", kLocalNode);
  auto ldms_latest = ldms.store().QueryLatest("shared");
  ASSERT_TRUE(apollo_latest.ok());
  ASSERT_TRUE(ldms_latest.ok());
  EXPECT_DOUBLE_EQ(apollo_latest->value, 77.0);
  EXPECT_DOUBLE_EQ(ldms_latest->value, 77.0);
}

TEST(Integration, ChangeSuppressionReducesQueueTraffic) {
  // Two vertices on the same constant metric: suppression on vs off.
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());

  FactDeployment noisy;
  noisy.topic = "nosup";
  noisy.publish_only_on_change = false;
  FactDeployment quiet;
  quiet.topic = "sup";
  quiet.publish_only_on_change = true;
  auto v1 = apollo.DeployFact(CapacityRemainingHook(device, 0), noisy);
  auto v2 = apollo.DeployFact(CapacityRemainingHook(device, 0), quiet);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  apollo.RunFor(Seconds(30));
  EXPECT_GT((*v1)->stats().published, 25u);
  EXPECT_EQ((*v2)->stats().published, 1u);
  EXPECT_GT((*v2)->stats().suppressed, 25u);
}

TEST(Integration, DelphiPipelineEndToEndInSimTime) {
  ApolloService apollo(SimOptions());
  delphi::DelphiConfig delphi_config;
  delphi_config.feature_config.train_length = 512;
  delphi_config.feature_config.epochs = 10;
  delphi_config.combiner_epochs = 10;
  delphi_config.composite_length = 512;
  apollo.SetDelphiModel(delphi::DelphiModel::Train(delphi_config));

  HaccTraceConfig trace_config;
  trace_config.duration = Seconds(300);
  static CapacityTrace trace;
  trace = MakeHaccCapacityTrace(trace_config);

  FactDeployment deployment;
  deployment.topic = "hacc";
  deployment.controller = "complex_aimd";
  deployment.aimd.initial_interval = Seconds(1);
  deployment.aimd.min_interval = Seconds(1);
  deployment.aimd.additive_step = Seconds(2);
  deployment.aimd.max_interval = Seconds(30);
  deployment.aimd.change_threshold = 50000.0;
  deployment.use_delphi = true;
  deployment.prediction_granularity = Seconds(1);
  deployment.publish_only_on_change = false;
  auto vertex =
      apollo.DeployFact(TraceReplayHook(trace, "hacc", 0), deployment);
  ASSERT_TRUE(vertex.ok());
  apollo.RunFor(Seconds(300));

  EXPECT_GT((*vertex)->stats().predictions, 50u);
  EXPECT_LT((*vertex)->stats().hook_calls, 200u);

  // Predicted rows are flagged and queryable as such.
  auto predicted = apollo.Query("SELECT COUNT(*) FROM hacc WHERE predicted = 1");
  auto measured = apollo.Query("SELECT COUNT(*) FROM hacc WHERE predicted = 0");
  ASSERT_TRUE(predicted.ok());
  ASSERT_TRUE(measured.ok());
  EXPECT_GT(predicted->rows[0].values[0], 0.0);
  EXPECT_GT(measured->rows[0].values[0], 0.0);
}

}  // namespace
}  // namespace apollo
