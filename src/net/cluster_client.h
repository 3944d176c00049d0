// ClusterClient: publish-side failover across a replicated apollod
// cluster.
//
// Wraps one ApolloClient per configured node and keeps a ClusterMap
// (fetched on demand, refreshed from kClusterMap pushes buffered by the
// underlying clients and after any node failure). A publish is sent to
// the topic's current primary when the map knows one — skipping the
// forward hop — and otherwise to each node in turn; any alive node
// accepts the publish and forwards it, so a publish only fails when no
// configured node answers or the cluster NACKs it (write quorum not
// met).
//
// Thread contract: one thread per ClusterClient (same as ApolloClient).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "common/clock.h"
#include "common/expected.h"
#include "net/client.h"
#include "net/cluster_controller.h"

namespace apollo::net {

class ClusterClient {
 public:
  explicit ClusterClient(std::vector<ClusterPeer> nodes);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // Publishes one sample, trying the topic's primary first and failing
  // over across the remaining nodes. Returns the acked entry id.
  Expected<std::uint64_t> Publish(const std::string& topic, TimeNs timestamp,
                                  const Sample& sample);

  // One batch round trip with the same failover order (first run's topic
  // picks the preferred node).
  Expected<PublishBatchAckMsg> PublishBatch(const PublishBatchMsg& msg);

  // Forces a map fetch from the first reachable node.
  Status RefreshMap();
  std::optional<cluster::ClusterMap> map() const { return map_; }

  void AttachFaultInjector(FaultInjector* injector);

  std::size_t NodeCount() const { return nodes_.size(); }

 private:
  struct Node {
    ClusterPeer info;
    std::unique_ptr<ApolloClient> client;
  };

  // Node indices to try for `topic`: live replicas in ring order first
  // (when a map is known), then every other node round-robin.
  std::vector<std::size_t> TargetsFor(const std::string& topic);
  // Drains buffered kClusterMap pushes from `node`'s client.
  void AbsorbPushes(Node& node);

  std::vector<Node> nodes_;
  std::optional<cluster::ClusterMap> map_;
  std::size_t rr_ = 0;  // round-robin start when the map has no opinion
};

}  // namespace apollo::net
