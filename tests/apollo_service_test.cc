#include <gtest/gtest.h>

#include <thread>

#include "apollo/apollo_service.h"
#include "cluster/cluster.h"
#include "cluster/workloads.h"
#include "insights/curations.h"

namespace apollo {
namespace {

delphi::DelphiModel& SmallDelphi() {
  static delphi::DelphiModel model = [] {
    delphi::DelphiConfig config;
    config.feature_config.train_length = 512;
    config.feature_config.epochs = 15;
    config.combiner_epochs = 20;
    config.composite_length = 512;
    return delphi::DelphiModel::Train(config);
  }();
  return model;
}

ApolloOptions SimOptions() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  return options;
}

TEST(ApolloServiceSim, DeployAndRun) {
  ApolloService apollo(SimOptions());
  Device device("nvme", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = Seconds(1);
  auto vertex = apollo.DeployFact(CapacityRemainingHook(device, 0),
                                  deployment);
  ASSERT_TRUE(vertex.ok());
  ASSERT_TRUE(apollo.RunFor(Seconds(5)).ok());
  auto latest = apollo.LatestValue("nvme.capacity_remaining");
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(*latest,
                   static_cast<double>(device.CapacityBytes()));
}

TEST(ApolloServiceSim, QueryThroughAqe) {
  ApolloService apollo(SimOptions());
  Device device("dev", DeviceSpec::Ssd());
  FactDeployment deployment;
  deployment.topic = "ssd_cap";
  deployment.publish_only_on_change = false;
  ASSERT_TRUE(apollo.DeployFact(CapacityRemainingHook(device, 0), deployment)
                  .ok());
  apollo.RunFor(Seconds(3));
  auto rs = apollo.Query("SELECT MAX(Timestamp), metric FROM ssd_cap");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(rs->rows[0].values[1],
                   static_cast<double>(device.CapacityBytes()));
}

TEST(ApolloServiceSim, UnknownControllerRejected) {
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.controller = "nonsense";
  EXPECT_FALSE(
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment).ok());
}

TEST(ApolloServiceSim, DelphiRequiresModel) {
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.use_delphi = true;
  auto result =
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kFailedPrecondition);

  apollo.SetDelphiModel(SmallDelphi().Clone());
  EXPECT_TRUE(apollo.HasDelphiModel());
  auto ok_result =
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_TRUE((*ok_result)->HasPredictor());
}

TEST(ApolloServiceSim, InsightPipelineEndToEnd) {
  ApolloService apollo(SimOptions());
  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 2;
  cluster_config.storage_nodes = 0;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  std::vector<std::string> topics;
  for (Node* node : cluster->ComputeNodes()) {
    Device& nvme = **node->FindDevice("nvme");
    FactDeployment deployment;
    deployment.topic = node->name() + ".nvme_cap";
    deployment.publish_only_on_change = false;
    ASSERT_TRUE(
        apollo.DeployFact(CapacityRemainingHook(nvme, 0), deployment).ok());
    topics.push_back(deployment.topic);
  }
  InsightVertexConfig insight;
  insight.topic = "tier.total";
  insight.upstream = topics;
  ASSERT_TRUE(apollo.DeployInsight(insight, SumInsight()).ok());
  apollo.RunFor(Seconds(5));

  auto total = apollo.LatestValue("tier.total");
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(*total, 2.0 * static_cast<double>(250ULL << 30));
}

TEST(ApolloServiceSim, UndeployRemovesVertex) {
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.topic = "gone";
  ASSERT_TRUE(
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment).ok());
  ASSERT_TRUE(apollo.Undeploy("gone").ok());
  EXPECT_FALSE(apollo.Undeploy("gone").ok());
}

TEST(ApolloServiceSim, RunUntilTilesTimeline) {
  ApolloService apollo(SimOptions());
  ASSERT_TRUE(apollo.RunUntil(Seconds(3)).ok());
  EXPECT_EQ(apollo.clock().Now(), Seconds(3));
  ASSERT_TRUE(apollo.RunFor(Seconds(2)).ok());
  EXPECT_EQ(apollo.clock().Now(), Seconds(5));
}

TEST(ApolloServiceSim, StartIsNoOpAndRealRunUntilFails) {
  ApolloService apollo(SimOptions());
  EXPECT_TRUE(apollo.Start().ok());

  ApolloOptions real;
  real.mode = ApolloOptions::Mode::kRealTime;
  ApolloService real_service(real);
  EXPECT_FALSE(real_service.RunUntil(Seconds(1)).ok());
}

TEST(ApolloServiceSim, AdaptiveIntervalReducesHookCalls) {
  // Two services monitoring the same constant metric: fixed 1s vs complex
  // AIMD. The adaptive one must call the hook far fewer times.
  Device device("d", DeviceSpec::Nvme());

  ApolloService fixed(SimOptions());
  FactDeployment fixed_deploy;
  fixed_deploy.controller = "fixed";
  fixed_deploy.fixed_interval = Seconds(1);
  fixed_deploy.topic = "m";
  auto fixed_vertex =
      fixed.DeployFact(CapacityRemainingHook(device, 0), fixed_deploy);
  ASSERT_TRUE(fixed_vertex.ok());
  fixed.RunFor(Seconds(120));

  ApolloService adaptive(SimOptions());
  FactDeployment adaptive_deploy;
  adaptive_deploy.controller = "complex_aimd";
  adaptive_deploy.aimd.initial_interval = Seconds(1);
  adaptive_deploy.aimd.additive_step = Seconds(1);
  adaptive_deploy.aimd.max_interval = Seconds(30);
  adaptive_deploy.aimd.change_threshold = 1000.0;
  adaptive_deploy.topic = "m";
  auto adaptive_vertex = adaptive.DeployFact(
      CapacityRemainingHook(device, 0), adaptive_deploy);
  ASSERT_TRUE(adaptive_vertex.ok());
  adaptive.RunFor(Seconds(120));

  EXPECT_LT((*adaptive_vertex)->stats().hook_calls,
            (*fixed_vertex)->stats().hook_calls / 3);
}

TEST(ApolloServiceReal, StartStopAndServeQueries) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  ApolloService apollo(options);

  Device device("d", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = Millis(5);
  deployment.topic = "rt";
  deployment.publish_only_on_change = false;
  ASSERT_TRUE(apollo.DeployFact(CapacityRemainingHook(device, Millis(0)),
                                deployment)
                  .ok());
  ASSERT_TRUE(apollo.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  auto rs = apollo.Query("SELECT MAX(Timestamp), metric FROM rt");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->NumRows(), 1u);
  apollo.Stop();

  // Double start after stop works.
  ASSERT_TRUE(apollo.Start().ok());
  EXPECT_FALSE(apollo.Start().ok());  // already running
  apollo.Stop();
}

TEST(ApolloServiceReal, DelphiPredictionsInRealTime) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  ApolloService apollo(options);
  apollo.SetDelphiModel(SmallDelphi().Clone());

  std::atomic<int> tick{0};
  MonitorHook hook{"ramp",
                   [&tick](TimeNs) {
                     return static_cast<double>(tick.fetch_add(1));
                   },
                   0};
  FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = Millis(50);
  deployment.use_delphi = true;
  deployment.prediction_granularity = Millis(5);
  auto vertex = apollo.DeployFact(std::move(hook), deployment);
  ASSERT_TRUE(vertex.ok());
  apollo.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  apollo.Stop();
  EXPECT_GT((*vertex)->stats().hook_calls, 5u);
  EXPECT_GT((*vertex)->stats().predictions, 10u);
}

}  // namespace
}  // namespace apollo
