#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "apollo/deployment_plan.h"
#include "delphi/delphi_model.h"

namespace apollo {
namespace {

ApolloOptions SimOptions() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  return options;
}

std::unique_ptr<Cluster> SmallCluster() {
  ClusterConfig config;
  config.compute_nodes = 2;
  config.storage_nodes = 1;
  return Cluster::MakeAresLike(config);
}

TEST(DeploymentPlan, TopicNamingConventions) {
  auto cluster = SmallCluster();
  Device& nvme = **cluster->FindDevice("compute0.nvme");
  Node& node = **cluster->FindNode(0);
  EXPECT_EQ(DeviceTopic(nvme, "capacity_remaining"),
            "compute0.nvme.capacity_remaining");
  EXPECT_EQ(NodeTopic(node, "cpu_load"), "compute0.cpu_load");
  EXPECT_EQ(TierTopic(DeviceType::kSsd), "tier.ssd.remaining");
}

TEST(DeploymentPlan, DefaultDeploymentCoverage) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  auto plan = DeployStandardMonitoring(apollo, *cluster);
  ASSERT_TRUE(plan.ok());

  // Facts: (capacity + utilization) per device + cpu per node +
  // availability. Devices: compute nodes have ram+nvme (2 each), storage
  // has ssd+hdd (2): 6 devices -> 12 + 3 cpu + 1 availability = 16.
  EXPECT_EQ(plan->fact_topics.size(), 16u);
  // Insights: 3 per-node totals + 4 tiers (ram, nvme, ssd, hdd).
  EXPECT_EQ(plan->insight_topics.size(), 7u);
  EXPECT_EQ(plan->TotalVertices(), apollo.graph().NumVertices());

  apollo.RunFor(Seconds(5));
  // Every topic produced data.
  for (const std::string& topic : plan->fact_topics) {
    EXPECT_TRUE(apollo.LatestValue(topic).ok()) << topic;
  }
  for (const std::string& topic : plan->insight_topics) {
    EXPECT_TRUE(apollo.LatestValue(topic).ok()) << topic;
  }
}

TEST(DeploymentPlan, TierInsightSumsCorrectly) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  DeploymentPlanOptions options;
  options.controller = "fixed";
  ASSERT_TRUE(DeployStandardMonitoring(apollo, *cluster, options).ok());
  apollo.RunFor(Seconds(5));
  auto total = apollo.LatestValue(TierTopic(DeviceType::kNvme));
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(*total, 2.0 * static_cast<double>(250ULL << 30));
}

TEST(DeploymentPlan, DisabledFamiliesAreSkipped) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  DeploymentPlanOptions options;
  options.utilization = false;
  options.cpu_load = false;
  options.availability = false;
  options.node_insights = false;
  options.tier_insights = false;
  auto plan = DeployStandardMonitoring(apollo, *cluster, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->fact_topics.size(), 6u);  // capacity only
  EXPECT_TRUE(plan->insight_topics.empty());
}

TEST(DeploymentPlan, ExtraFamiliesDeploy) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  DeploymentPlanOptions options;
  options.queue_depth = true;
  options.bandwidth = true;
  options.power = true;
  auto plan = DeployStandardMonitoring(apollo, *cluster, options);
  ASSERT_TRUE(plan.ok());
  auto has = [&](const std::string& topic) {
    return std::find(plan->fact_topics.begin(), plan->fact_topics.end(),
                     topic) != plan->fact_topics.end();
  };
  EXPECT_TRUE(has("compute0.nvme.queue_depth"));
  EXPECT_TRUE(has("compute0.nvme.real_bw"));
  EXPECT_TRUE(has("compute0.power_watts"));
}

TEST(DeploymentPlan, SecondDeploymentConflicts) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  ASSERT_TRUE(DeployStandardMonitoring(apollo, *cluster).ok());
  auto second = DeployStandardMonitoring(apollo, *cluster);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kAlreadyExists);
}

TEST(DeploymentPlan, DelphiOptionRequiresModel) {
  auto cluster = SmallCluster();
  ApolloService apollo(SimOptions());
  DeploymentPlanOptions options;
  options.use_delphi = true;
  EXPECT_FALSE(DeployStandardMonitoring(apollo, *cluster, options).ok());
}

// --- Delphi persistence ---

TEST(DelphiPersistence, SaveLoadRoundTrip) {
  delphi::DelphiConfig config;
  config.feature_config.train_length = 512;
  config.feature_config.epochs = 10;
  config.combiner_epochs = 10;
  config.composite_length = 512;
  delphi::DelphiModel model = delphi::DelphiModel::Train(config);

  const std::string path = testing::TempDir() + "/delphi_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  auto loaded = delphi::DelphiModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Window(), model.Window());
  EXPECT_EQ(loaded->ParamCount(), model.ParamCount());
  EXPECT_EQ(loaded->TrainableParamCount(), model.TrainableParamCount());

  const std::vector<double> window = {0.1, 0.4, 0.3, 0.6, 0.5};
  EXPECT_DOUBLE_EQ(loaded->Predict(window), model.Predict(window));
  std::remove(path.c_str());
}

TEST(DelphiPersistence, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/not_a_model.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("hello world, definitely not a model", f);
    std::fclose(f);
  }
  auto loaded = delphi::DelphiModel::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code(), ErrorCode::kParseError);
  std::remove(path.c_str());
}

TEST(DelphiPersistence, LoadMissingFileFails) {
  auto loaded = delphi::DelphiModel::LoadFromFile("/no/such/file.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code(), ErrorCode::kIoError);
}

TEST(DelphiPersistence, TruncatedFileFails) {
  delphi::DelphiConfig config;
  config.feature_config.train_length = 256;
  config.feature_config.epochs = 5;
  config.combiner_epochs = 5;
  config.composite_length = 256;
  delphi::DelphiModel model = delphi::DelphiModel::Train(config);
  const std::string path = testing::TempDir() + "/truncated_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  // Truncate to the header only.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(ftruncate(fileno(f), 16), 0);
  std::fclose(f);
  auto loaded = delphi::DelphiModel::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apollo
