// Resource-aware data placement (the paper's §4.4 middleware use case).
//
// Runs a VPIC-IO-style write workload through the Hierarchical Data
// Placement Engine under three policies — PFS-only, round-robin, and
// Apollo-informed capacity-aware placement — and prints I/O time, flushes,
// and stalls for each. The Apollo policy reads capacities from monitored
// SCoRe topics (fresh to within the adaptive polling interval), not from
// the devices directly.
//
// Build & run:  ./build/examples/data_placement
#include <cstdio>

#include "apollo/apollo_service.h"
#include "cluster/cluster.h"
#include "middleware/apps.h"
#include "middleware/hdpe.h"
#include "score/monitor_hook.h"

using namespace apollo;
using namespace apollo::middleware;

namespace {

AppConfig SmallVpic() {
  AppConfig config;
  config.procs = 128;
  config.bytes_per_proc = 32 << 20;
  config.steps = 16;
  return config;
}

void PrintReport(const char* label, const AppReport& report) {
  std::printf("%-22s io_time=%8.2fs  flushes=%4llu  stalls=%4llu\n", label,
              ToSeconds(report.io_time),
              static_cast<unsigned long long>(report.engine.flushes),
              static_cast<unsigned long long>(report.engine.stalls));
}

}  // namespace

int main() {
  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 4;
  cluster_config.storage_nodes = 4;

  // Baseline 1: write straight to the PFS.
  {
    auto cluster = Cluster::MakeAresLike(cluster_config);
    Hdpe engine(BuildHermesTiers(*cluster), PlacementPolicy::kPfsOnly);
    PrintReport("PFS only", RunVpicIo(engine, SmallVpic()));
  }

  // Baseline 2: Hermes-default round-robin buffering.
  {
    auto cluster = Cluster::MakeAresLike(cluster_config);
    // Shrink NVMe capacity so buffering pressure appears within the run.
    for (Device* d : cluster->DevicesOfType(DeviceType::kNvme)) {
      d->Reserve(d->RemainingBytes() - (12ULL << 30));
    }
    Hdpe engine(BuildHermesTiers(*cluster), PlacementPolicy::kRoundRobin);
    PrintReport("HDPE round-robin", RunVpicIo(engine, SmallVpic()));
  }

  // Apollo-informed: capacity knowledge comes from monitored topics.
  {
    auto cluster = Cluster::MakeAresLike(cluster_config);
    for (Device* d : cluster->DevicesOfType(DeviceType::kNvme)) {
      d->Reserve(d->RemainingBytes() - (12ULL << 30));
    }

    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kSimulated;
    ApolloService apollo(options);
    for (Device* d : cluster->DevicesOfType(DeviceType::kNvme)) {
      FactDeployment deployment;
      deployment.controller = "simple_aimd";
      deployment.aimd.initial_interval = Millis(500);
      deployment.aimd.additive_step = Millis(500);
      deployment.aimd.max_interval = Seconds(5);
      deployment.aimd.change_threshold = 1 << 20;
      deployment.topic = d->name() + ".remaining";
      deployment.publish_only_on_change = false;
      apollo.DeployFact(CapacityRemainingHook(*d, 0), deployment);
    }
    for (Device* d : cluster->DevicesOfType(DeviceType::kSsd)) {
      FactDeployment deployment;
      deployment.controller = "fixed";
      deployment.fixed_interval = Seconds(1);
      deployment.topic = d->name() + ".remaining";
      deployment.publish_only_on_change = false;
      apollo.DeployFact(CapacityRemainingHook(*d, 0), deployment);
    }
    apollo.RunFor(Seconds(2));  // warm the topics

    // The engine asks Apollo (not the device) for remaining capacity.
    CapacityFn apollo_capacity =
        [&apollo](const BufferingTarget& target)
        -> std::optional<double> {
      auto value = apollo.LatestValue(target.device->name() + ".remaining");
      if (!value.ok()) return std::nullopt;
      return *value;
    };
    Hdpe engine(BuildHermesTiers(*cluster),
                PlacementPolicy::kCapacityAware, apollo_capacity);

    // Interleave the app with monitoring: run one step, advance Apollo.
    AppConfig config = SmallVpic();
    AppReport report;
    TimeNs now = apollo.clock().Now();
    for (int step = 0; step < config.steps; ++step) {
      TimeNs step_end = now;
      for (int proc = 0; proc < config.procs; ++proc) {
        auto end = engine.Write(config.bytes_per_proc, now);
        if (!end.ok()) {
          ++report.errors;
          continue;
        }
        step_end = std::max(step_end, *end);
      }
      apollo.RunUntil(step_end);  // monitoring observes the new capacities
      now = step_end;
    }
    report.io_time = now - Seconds(2);
    report.engine = engine.stats();
    PrintReport("HDPE + Apollo", report);
    std::printf(
        "\nApollo answered %llu capacity queries from monitored topics.\n",
        static_cast<unsigned long long>(engine.stats().capacity_queries));
  }
  return 0;
}
