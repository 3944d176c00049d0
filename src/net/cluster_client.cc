#include "net/cluster_client.h"

#include <algorithm>
#include <utility>

#include "cluster/placement.h"

namespace apollo::net {

ClusterClient::ClusterClient(std::vector<ClusterPeer> nodes) {
  nodes_.reserve(nodes.size());
  for (ClusterPeer& peer : nodes) {
    Node node;
    ClientConfig config;
    config.host = peer.host;
    config.port = peer.port;
    config.client_name = "cluster-client:" + peer.name;
    node.info = std::move(peer);
    node.client = std::make_unique<ApolloClient>(std::move(config));
    nodes_.push_back(std::move(node));
  }
}

void ClusterClient::AttachFaultInjector(FaultInjector* injector) {
  for (Node& node : nodes_) node.client->AttachFaultInjector(injector);
}

void ClusterClient::AbsorbPushes(Node& node) {
  if (auto pushed = node.client->TakeClusterMapPush()) {
    if (!map_.has_value() || pushed->version >= map_->version) {
      map_ = std::move(*pushed);
    }
  }
}

Status ClusterClient::RefreshMap() {
  Error last(ErrorCode::kUnavailable, "no nodes configured");
  for (Node& node : nodes_) {
    auto map = node.client->FetchClusterMap();
    if (map.ok()) {
      map_ = std::move(*map);
      return Status::Ok();
    }
    last = map.error();
  }
  return Status(last.code(), last.message());
}

std::vector<std::size_t> ClusterClient::TargetsFor(const std::string& topic) {
  std::vector<std::size_t> order;
  auto index_of = [this](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].info.name == name) return i;
    }
    return nodes_.size();
  };
  if (map_.has_value()) {
    std::vector<std::string> member_names;
    for (const cluster::Member& m : map_->members) {
      member_names.push_back(m.name);
    }
    const cluster::PlacementRing ring(member_names);
    for (const cluster::Member* m :
         cluster::AliveReplicasFor(ring, *map_, topic)) {
      const std::size_t idx = index_of(m->name);
      if (idx < nodes_.size()) order.push_back(idx);
    }
  }
  // Everyone else as fallback, rotating the start so a map-less client
  // spreads load instead of hammering node 0.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::size_t idx = (rr_ + i) % nodes_.size();
    if (std::find(order.begin(), order.end(), idx) == order.end()) {
      order.push_back(idx);
    }
  }
  rr_ = nodes_.empty() ? 0 : (rr_ + 1) % nodes_.size();
  return order;
}

Expected<std::uint64_t> ClusterClient::Publish(const std::string& topic,
                                               TimeNs timestamp,
                                               const Sample& sample) {
  Error last(ErrorCode::kUnavailable, "no nodes configured");
  bool nacked = false;
  bool refreshed = false;
  for (const std::size_t idx : TargetsFor(topic)) {
    Node& node = nodes_[idx];
    auto id = node.client->Publish(topic, timestamp, sample);
    AbsorbPushes(node);
    if (id.ok()) return id;
    // A NACK from a daemon that answered (connection still up) beats a
    // transport failure from a dead one: "write quorum not met" tells the
    // caller what is actually wrong, "connection refused" from the
    // fallback tail just names the node everyone already knows is down.
    const bool nack = node.client->connected();
    if (nack || !nacked) last = id.error();
    nacked = nacked || nack;
    // A NACK from a live daemon (quorum not met, stale primary) is worth
    // one failover hop too: another node may already see the newer map.
    if (!refreshed) {
      refreshed = true;
      (void)RefreshMap();
    }
  }
  return last;
}

Expected<PublishBatchAckMsg> ClusterClient::PublishBatch(
    const PublishBatchMsg& msg) {
  Error last(ErrorCode::kUnavailable, "no nodes configured");
  const std::string topic = msg.runs.empty() ? "" : msg.runs.front().topic;
  bool nacked = false;
  bool refreshed = false;
  for (const std::size_t idx : TargetsFor(topic)) {
    Node& node = nodes_[idx];
    auto ack = node.client->PublishBatch(msg);
    AbsorbPushes(node);
    if (ack.ok()) return ack;
    const bool nack = node.client->connected();
    if (nack || !nacked) last = ack.error();
    nacked = nacked || nack;
    if (!refreshed) {
      refreshed = true;
      (void)RefreshMap();
    }
  }
  return last;
}

}  // namespace apollo::net
