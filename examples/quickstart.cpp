// Quickstart: deploy Apollo over a small simulated cluster, monitor NVMe
// capacity with an adaptive interval, aggregate a tier insight, and query
// the latest cluster state through the AQE.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "apollo/apollo_service.h"
#include "cluster/cluster.h"
#include "insights/curations.h"
#include "score/monitor_hook.h"

using namespace apollo;

int main() {
  // 1. A simulated 2-compute / 1-storage cluster (the Ares-testbed model).
  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 2;
  cluster_config.storage_nodes = 1;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  // 2. Apollo in simulated-time mode: RunFor() advances virtual time, so
  //    minutes of monitoring complete instantly.
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);

  // 3. One Fact Vertex per NVMe with a complex-AIMD adaptive interval.
  std::vector<std::string> capacity_topics;
  for (Node* node : cluster->ComputeNodes()) {
    Device& nvme = **node->FindDevice("nvme");
    FactDeployment deployment;
    deployment.controller = "complex_aimd";
    deployment.aimd.initial_interval = Seconds(1);
    deployment.aimd.additive_step = Seconds(1);
    deployment.aimd.max_interval = Seconds(30);
    deployment.aimd.change_threshold = 1 << 20;  // 1MB wiggle tolerated
    deployment.topic = node->name() + ".nvme.capacity";
    deployment.node = node->id();
    auto vertex =
        apollo.DeployFact(CapacityRemainingHook(nvme, Millis(1)), deployment);
    if (!vertex.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   vertex.error().ToString().c_str());
      return 1;
    }
    capacity_topics.push_back(deployment.topic);
  }

  // 4. An Insight Vertex summing the tier's remaining capacity.
  InsightVertexConfig insight;
  insight.topic = "tier.nvme.total_remaining";
  insight.upstream = capacity_topics;
  insight.pull_interval = Seconds(2);
  if (auto deployed = apollo.DeployInsight(insight, SumInsight());
      !deployed.ok()) {
    std::fprintf(stderr, "insight failed: %s\n",
                 deployed.error().ToString().c_str());
    return 1;
  }

  // 5. Generate some I/O against one NVMe, then let Apollo observe it.
  Device& busy = **cluster->ComputeNodes()[0]->FindDevice("nvme");
  busy.Write(10ULL << 30, apollo.clock().Now());  // 10 GB lands
  apollo.RunFor(Seconds(30));

  // 6. Query the latest state with the AQE (the paper's resource query).
  auto rs = apollo.Query(
      "SELECT MAX(Timestamp), metric FROM compute0.nvme.capacity UNION "
      "SELECT MAX(Timestamp), metric FROM compute1.nvme.capacity UNION "
      "SELECT MAX(Timestamp), metric FROM tier.nvme.total_remaining");
  if (!rs.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 rs.error().ToString().c_str());
    return 1;
  }
  std::printf("%-35s %15s %18s\n", "source", "timestamp(s)", "metric(GB)");
  for (const auto& row : rs->rows) {
    std::printf("%-35s %15.1f %18.2f\n", row.source.c_str(),
                row.values[0] / 1e9, row.values[1] / 1e9);
  }

  // 7. Direct curated insights over the cluster.
  std::printf("\nI/O insight samples:\n");
  std::printf("  tier NVMe remaining : %.2f GB\n",
              insights::TierRemainingCapacity(*cluster, DeviceType::kNvme) /
                  1e9);
  std::printf("  interference (busy) : %.3f\n",
              insights::InterferenceFactor(busy, apollo.clock().Now()));
  std::printf("  online nodes        : %zu\n",
              insights::NodeAvailabilityList(*cluster, apollo.clock().Now())
                  .available.size());
  return 0;
}
