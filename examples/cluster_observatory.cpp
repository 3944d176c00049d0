// Cluster observatory: full-stack demo of the standard deployment plan.
//
// Trains Delphi once and persists it (the offline-train / online-serve
// flow), deploys the standard monitoring suite over an Ares-like cluster
// with entropy-driven adaptive intervals and Delphi fill-in, injects a
// bursty workload plus a node failure, and prints a periodic status board
// assembled entirely from AQE queries.
//
// Build & run:  ./build/examples/cluster_observatory
#include <cstdio>

#include "apollo/apollo_service.h"
#include "apollo/deployment_plan.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "delphi/delphi_model.h"

using namespace apollo;

namespace {

void PrintBoard(ApolloService& apollo, const Cluster& cluster, TimeNs now) {
  std::printf("\n--- t=%.0fs ---\n", ToSeconds(now));
  std::printf("%-28s %14s %10s\n", "topic", "value(GB)", "age(s)");
  for (DeviceType tier : {DeviceType::kNvme, DeviceType::kSsd}) {
    const std::string topic = TierTopic(tier);
    auto rs = apollo.Query("SELECT MAX(Timestamp), metric FROM " + topic);
    if (!rs.ok() || rs->NumRows() == 0) continue;
    const double ts = rs->rows[0].values[0];
    const double value = rs->rows[0].values[1];
    std::printf("%-28s %14.2f %10.1f\n", topic.c_str(), value / 1e9,
                ToSeconds(now - static_cast<TimeNs>(ts)));
  }
  auto avail = apollo.Query(
      "SELECT MAX(Timestamp), metric FROM cluster.available_nodes");
  if (avail.ok() && avail->NumRows() == 1) {
    std::printf("%-28s %11.0f/%zu\n", "online nodes",
                avail->rows[0].values[1], cluster.NumNodes());
  }
  // How much of the telemetry stream is model-predicted?
  auto predicted = apollo.Query(
      "SELECT COUNT(*) FROM compute0.nvme.capacity_remaining WHERE "
      "predicted = 1");
  auto total = apollo.Query(
      "SELECT COUNT(*) FROM compute0.nvme.capacity_remaining");
  if (predicted.ok() && total.ok() && total->rows[0].values[0] > 0) {
    std::printf("%-28s %13.0f%%\n", "predicted samples (nvme0)",
                100.0 * predicted->rows[0].values[0] /
                    total->rows[0].values[0]);
  }
}

}  // namespace

int main() {
  // 1. Offline: train Delphi once and persist the weights.
  const std::string model_path = "/tmp/apollo_delphi_observatory.bin";
  {
    delphi::DelphiConfig config;
    config.feature_config.train_length = 2048;
    config.feature_config.epochs = 40;
    config.combiner_epochs = 60;
    delphi::DelphiModel model = delphi::DelphiModel::Train(config);
    if (!model.SaveToFile(model_path).ok()) {
      std::fprintf(stderr, "failed to save Delphi model\n");
      return 1;
    }
    std::printf("Delphi trained (%.2fs) and saved to %s\n",
                model.train_seconds(), model_path.c_str());
  }

  // 2. Online: load the model, deploy the observatory.
  auto loaded = delphi::DelphiModel::LoadFromFile(model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.error().ToString().c_str());
    return 1;
  }

  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 3;
  cluster_config.storage_nodes = 2;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);
  apollo.SetDelphiModel(std::move(*loaded));

  DeploymentPlanOptions plan_options;
  plan_options.controller = "entropy_aimd";  // the future-work heuristic
  plan_options.aimd.initial_interval = Seconds(1);
  plan_options.aimd.min_interval = Seconds(1);
  plan_options.aimd.max_interval = Seconds(16);
  plan_options.use_delphi = true;
  plan_options.prediction_granularity = Seconds(1);
  auto plan = DeployStandardMonitoring(apollo, *cluster, plan_options);
  if (!plan.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 plan.error().ToString().c_str());
    return 1;
  }
  std::printf("deployed %zu facts + %zu insights\n",
              plan->fact_topics.size(), plan->insight_topics.size());

  // 3. Drive a bursty workload and a mid-run node failure.
  Rng rng(2026);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const TimeNs now = apollo.clock().Now();
    for (Device* nvme : cluster->DevicesOfType(DeviceType::kNvme)) {
      if (rng.Bernoulli(0.7)) {
        nvme->Write((64 + rng.NextBounded(512)) << 20, now);
      }
    }
    if (epoch == 3) {
      std::printf("\n*** injecting failure: compute2 goes offline ***\n");
      (*cluster->FindNode("compute2"))->SetOnline(false);
    }
    apollo.RunFor(Seconds(20));
    PrintBoard(apollo, *cluster, apollo.clock().Now());
  }
  return 0;
}
