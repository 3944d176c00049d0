// Consistent-hash topic -> node placement for the replicated cluster.
//
// Every node is mapped onto a 64-bit hash ring at kPlacementVnodes
// points; a topic's replica set is the first `replication_factor` DISTINCT
// nodes found walking clockwise from the topic's hash. The walk is computed
// over the full configured member list, so placement is a pure function of
// (members, topic) — every node and client derives the same base replica
// set without coordination. Failover re-runs the same walk restricted to
// ELIGIBLE (alive-or-suspect) nodes: a dead replica is replaced by the
// next node clockwise, so the replica set keeps its full width and the
// write quorum stays meetable with any `rf` survivors. Because the walk
// order is fixed, a node death shifts only the topics it carried
// (consistent hashing's minimal-movement property) and a rejoining node
// reclaims exactly its old ranges.
//
// The hash is FNV-1a 64 finished with a SplitMix64 mix. std::hash is
// deliberately not used: placement must agree across processes and
// standard-library implementations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace apollo::cluster {

// Stable cross-process hash for ring points and topic keys.
std::uint64_t PlacementHash(std::string_view key);

// Ring points per node. Every daemon and client builds its ring with the
// same count, so they all agree on each topic's replicas.
constexpr std::uint32_t kPlacementVnodes = 64;

class PlacementRing {
 public:
  // `nodes` is the full configured membership (order-insensitive: ring
  // position depends only on each name's hash). Duplicate names collapse.
  explicit PlacementRing(const std::vector<std::string>& nodes);

  // First `rf` distinct node names clockwise from hash(topic), over ALL
  // configured nodes (liveness-agnostic base order).
  std::vector<std::string> ReplicasFor(std::string_view topic,
                                       std::uint32_t rf) const;

  // Same walk, skipping nodes for which `eligible` is false. This is the
  // failover selection: dead nodes are passed over and the set refills
  // from the next clockwise survivors, so it only narrows when fewer
  // than `rf` eligible nodes exist at all.
  std::vector<std::string> ReplicasFor(
      std::string_view topic, std::uint32_t rf,
      const std::function<bool(const std::string&)>& eligible) const;

  std::size_t NodeCount() const { return node_names_.size(); }
  const std::vector<std::string>& Nodes() const { return node_names_; }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t node;  // index into node_names_
  };

  std::vector<std::string> node_names_;
  std::vector<Point> ring_;  // sorted by hash
};

}  // namespace apollo::cluster
