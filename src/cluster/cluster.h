// Simulated cluster: the Ares-testbed substitute.
//
// Holds compute and storage nodes, a network model with per-pair ping
// times, and lookup helpers used by Fact Vertices ("node3.nvme") and the
// insight curations (tier aggregation, node availability).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "common/expected.h"
#include "common/rng.h"
#include "pubsub/broker.h"

namespace apollo {

struct ClusterConfig {
  int compute_nodes = 4;
  int storage_nodes = 4;
  TimeNs base_network_latency = Millis(0.05);  // 50us: 40GbE + RoCE
  double network_jitter_frac = 0.2;
  std::uint64_t seed = 2024;
};

// Pairwise-latency network with deterministic per-pair jitter — gives each
// node pair a distinct, stable ping time (the Network Health curation).
class JitteredNetwork final : public NetworkModel {
 public:
  JitteredNetwork(TimeNs base, double jitter_frac, std::uint64_t seed)
      : base_(base), jitter_frac_(jitter_frac), seed_(seed) {}

  TimeNs Latency(NodeId from, NodeId to) const override;

 private:
  TimeNs base_;
  double jitter_frac_;
  std::uint64_t seed_;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  // Ares-like layout: compute nodes get one NVMe each; storage nodes get an
  // SSD and an HDD each.
  static std::unique_ptr<Cluster> MakeAresLike(const ClusterConfig& config);

  Node& AddNode(const std::string& name, NodeSpec spec);

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  std::size_t NumNodes() const { return nodes_.size(); }

  Expected<Node*> FindNode(const std::string& name) const;
  Expected<Node*> FindNode(NodeId id) const;

  // Qualified device lookup: "node3.nvme".
  Expected<Device*> FindDevice(const std::string& qualified_name) const;

  // Every device of a type across the cluster (a storage tier).
  std::vector<Device*> DevicesOfType(DeviceType type) const;

  std::vector<Node*> ComputeNodes() const;
  std::vector<Node*> StorageNodes() const;
  std::vector<NodeId> OnlineNodes() const;

  const NetworkModel& network() const { return *network_; }

  // Ping time between two nodes (round-trip = 2x one-way latency).
  TimeNs PingTime(NodeId a, NodeId b) const {
    return 2 * network_->Latency(a, b);
  }

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::shared_ptr<const NetworkModel> network_;
};

}  // namespace apollo
