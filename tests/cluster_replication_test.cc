// Replicated-cluster suite: placement ring properties, membership state
// machine, and in-process 3-node daemon integration — replication quorum,
// forward-to-primary, publish failover, paged resync, replica-routed
// queries, and the all-nodes-unreachable degraded path. Every daemon binds
// an ephemeral port picked up front (cluster configs need the full member
// list before any daemon starts).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "cluster/membership.h"
#include "cluster/placement.h"
#include "common/clock.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/daemon.h"
#include "net/remote_query.h"
#include "pubsub/broker.h"
#include "pubsub/telemetry.h"

namespace apollo::net {
namespace {

using cluster::AliveReplicasFor;
using cluster::ClusterMap;
using cluster::Member;
using cluster::MemberState;
using cluster::MembershipConfig;
using cluster::MembershipTable;
using cluster::PlacementRing;

// Reserves `n` distinct ephemeral ports: bind them all before closing any
// so the kernel can't hand the same port out twice.
std::vector<std::uint16_t> PickFreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

// --- placement ring -------------------------------------------------------

TEST(ClusterPlacement, DeterministicDistinctReplicas) {
  const std::vector<std::string> nodes = {"n1", "n2", "n3", "n4"};
  PlacementRing a(nodes);
  PlacementRing b({"n4", "n3", "n2", "n1"});  // order-insensitive
  for (const char* topic : {"cpu.util", "mem.free", "nvme0.write_mb",
                            "score.compute0", "delphi.lat"}) {
    const auto ra = a.ReplicasFor(topic, 3);
    EXPECT_EQ(ra, b.ReplicasFor(topic, 3));
    EXPECT_EQ(ra.size(), 3u);
    EXPECT_EQ(std::set<std::string>(ra.begin(), ra.end()).size(), 3u);
  }
}

TEST(ClusterPlacement, SpreadsPrimariesAcrossNodes) {
  const std::vector<std::string> nodes = {"n1", "n2", "n3"};
  PlacementRing ring(nodes);
  std::map<std::string, int> primaries;
  for (int i = 0; i < 300; ++i) {
    primaries[ring.ReplicasFor("topic." + std::to_string(i), 2).front()]++;
  }
  for (const std::string& n : nodes) {
    EXPECT_GT(primaries[n], 30) << n << " owns almost nothing";
  }
}

// The failover property the write quorum depends on: removing one node
// from eligibility REFILLS the set from the next clockwise survivor
// instead of shrinking it.
TEST(ClusterPlacement, EligibleWalkRefillsReplicaSet) {
  const std::vector<std::string> nodes = {"n1", "n2", "n3"};
  PlacementRing ring(nodes);
  for (int i = 0; i < 200; ++i) {
    const std::string topic = "t." + std::to_string(i);
    const auto base = ring.ReplicasFor(topic, 2);
    const std::string dead = base.front();
    const auto alive = ring.ReplicasFor(
        topic, 2, [&dead](const std::string& n) { return n != dead; });
    ASSERT_EQ(alive.size(), 2u) << topic;
    EXPECT_EQ(std::count(alive.begin(), alive.end(), dead), 0);
    // The surviving base replica stays in the set (minimal movement).
    EXPECT_NE(std::find(alive.begin(), alive.end(), base[1]), alive.end());
  }
}

TEST(ClusterPlacement, DeathMovesOnlyTheDeadNodesTopics) {
  const std::vector<std::string> nodes = {"n1", "n2", "n3", "n4"};
  PlacementRing ring(nodes);
  for (int i = 0; i < 200; ++i) {
    const std::string topic = "t." + std::to_string(i);
    const auto base = ring.ReplicasFor(topic, 2);
    if (std::count(base.begin(), base.end(), "n4") > 0) continue;
    const auto alive = ring.ReplicasFor(
        topic, 2, [](const std::string& n) { return n != "n4"; });
    EXPECT_EQ(alive, base) << topic << " moved although n4 wasn't a replica";
  }
}

// --- membership table -----------------------------------------------------

std::vector<Member> ThreeMembers() {
  std::vector<Member> members(3);
  members[0].name = "n1";
  members[1].name = "n2";
  members[2].name = "n3";
  for (auto& m : members) m.host = "127.0.0.1";
  return members;
}

TEST(ClusterMembership, SilenceDrivesSuspectThenDead) {
  MembershipConfig config;
  config.suspect_after = Millis(100);
  config.dead_after = Millis(300);
  MembershipTable table("n1", /*generation=*/7, ThreeMembers(), config);
  const TimeNs t0 = Millis(1000);
  table.Observe("n2", 42, MemberState::kAlive, t0);
  EXPECT_EQ(table.Snapshot().Find("n2")->state, MemberState::kAlive);

  table.Tick(t0 + Millis(150));
  EXPECT_EQ(table.Snapshot().Find("n2")->state, MemberState::kSuspect);
  EXPECT_GE(table.Suspects(), 1u);

  table.Tick(t0 + Millis(350));
  EXPECT_EQ(table.Snapshot().Find("n2")->state, MemberState::kDead);
  EXPECT_GE(table.Deaths(), 1u);

  // An ack revives it on the spot.
  table.Observe("n2", 42, MemberState::kAlive, t0 + Millis(400));
  EXPECT_EQ(table.Snapshot().Find("n2")->state, MemberState::kAlive);
}

TEST(ClusterMembership, GenerationBumpAfterDeathIsARecovery) {
  MembershipConfig config;
  config.suspect_after = Millis(100);
  config.dead_after = Millis(300);
  MembershipTable table("n1", 7, ThreeMembers(), config);
  const TimeNs t0 = Millis(1000);
  table.Observe("n2", 100, MemberState::kAlive, t0);
  table.Tick(t0 + Millis(400));
  ASSERT_EQ(table.Snapshot().Find("n2")->state, MemberState::kDead);
  const std::uint64_t recoveries = table.Recoveries();
  // The restarted incarnation reports a newer generation and kJoining;
  // a stale echo from the dead incarnation must not regress it.
  table.Observe("n2", 200, MemberState::kJoining, t0 + Millis(500));
  table.Observe("n2", 100, MemberState::kAlive, t0 + Millis(510));
  const ClusterMap map = table.Snapshot();
  const Member* m = map.Find("n2");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->generation, 200u);
  EXPECT_EQ(m->state, MemberState::kJoining);
  EXPECT_GT(table.Recoveries(), recoveries);
}

TEST(ClusterMembership, NeverSeenPeersAreNotPlacementTargets) {
  MembershipTable table("n1", 7, ThreeMembers(), MembershipConfig{});
  ClusterMap map = table.Snapshot();
  // Self starts kJoining (it must resync before serving); the two silent
  // peers start dead at generation 0 — none is a placement target yet.
  EXPECT_EQ(map.Find("n1")->state, MemberState::kJoining);
  EXPECT_EQ(map.Find("n2")->state, MemberState::kDead);
  EXPECT_EQ(map.Find("n3")->state, MemberState::kDead);
  PlacementRing ring({"n1", "n2", "n3"});
  EXPECT_TRUE(AliveReplicasFor(ring, map, "solo.topic").empty());

  // Once resync finishes, self becomes the sole eligible replica.
  table.SetSelfState(MemberState::kAlive);
  map = table.Snapshot();
  const auto replicas = AliveReplicasFor(ring, map, "solo.topic");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0]->name, "n1");
}

TEST(ClusterMembership, MapVersionBumpsOnChange) {
  MembershipConfig config;
  config.suspect_after = Millis(100);
  config.dead_after = Millis(300);
  MembershipTable table("n1", 7, ThreeMembers(), config);
  const std::uint64_t v0 = table.Snapshot().version;
  table.Observe("n2", 42, MemberState::kAlive, Millis(1000));
  const std::uint64_t v1 = table.Snapshot().version;
  EXPECT_GT(v1, v0);
  EXPECT_FALSE(table.Tick(Millis(1050)));  // nothing changed
  EXPECT_EQ(table.Snapshot().version, v1);
  EXPECT_TRUE(table.Tick(Millis(1200)));  // n2 -> suspect
  EXPECT_GT(table.Snapshot().version, v1);
}

// --- in-process 3-node cluster --------------------------------------------

struct TestNode {
  std::string name;
  std::uint16_t port = 0;
  std::unique_ptr<Broker> broker;
  std::unique_ptr<aqe::Executor> executor;
  std::unique_ptr<ApolloDaemon> daemon;
};

class ClusterNetTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 3;

  void SetUp() override {
    const auto ports = PickFreePorts(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      ClusterPeer peer;
      peer.name = "node" + std::to_string(i);
      peer.host = "127.0.0.1";
      peer.port = ports[i];
      peers_.push_back(peer);
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes_.push_back(MakeNode(i));
      ASSERT_TRUE(nodes_[i]->daemon->Start().ok());
    }
    WaitForAllAlive();
  }

  void TearDown() override {
    for (auto& node : nodes_) {
      if (node->daemon != nullptr) node->daemon->Stop();
    }
  }

  std::unique_ptr<TestNode> MakeNode(std::size_t i) {
    auto node = std::make_unique<TestNode>();
    node->name = peers_[i].name;
    node->port = peers_[i].port;
    node->broker = std::make_unique<Broker>(RealClock::Instance());
    node->executor = std::make_unique<aqe::Executor>(*node->broker);
    DaemonConfig config;
    config.server.port = peers_[i].port;
    config.server.server_name = peers_[i].name;
    config.cluster.enabled = true;
    config.cluster.self = peers_[i].name;
    config.cluster.members = peers_;
    config.cluster.replication_factor = 2;
    config.cluster.write_quorum = 2;
    config.cluster.heartbeat_interval = Millis(50);
    config.cluster.suspect_after = Millis(250);
    config.cluster.dead_after = Millis(600);
    config.cluster.peer_timeout = Millis(150);
    node->daemon = std::make_unique<ApolloDaemon>(*node->broker,
                                                  *node->executor, config);
    return node;
  }

  // Spins until every node reports every member alive (bounded). A node
  // that still counts a peer dead places its replicas elsewhere, so a
  // publish it routes then misses its quorum or a replica.
  void WaitForAllAlive() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      std::size_t alive = 0;
      for (const auto& node : nodes_) {
        const ClusterMap map = node->daemon->cluster()->Snapshot();
        for (const Member& m : map.members) {
          if (m.state == MemberState::kAlive) ++alive;
        }
      }
      if (alive == kNodes * kNodes) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "cluster never converged to all-alive";
  }

  ClientConfig ClientFor(std::size_t i, const char* name) {
    ClientConfig config;
    config.host = "127.0.0.1";
    config.port = peers_[i].port;
    config.client_name = name;
    config.connect_retry.max_attempts = 2;
    return config;
  }

  // Full stream contents of `topic` on node `i`, paged through
  // kFetchWindow from cursor 0 to the first empty page.
  Expected<WindowMsg> Pull(std::size_t i, const std::string& topic) {
    ApolloClient client(ClientFor(i, "test-reader"));
    WindowMsg all;
    while (true) {
      auto page = client.FetchWindow(topic, all.next_cursor);
      if (!page.ok()) return page.error();
      if (page->entries.empty()) return all;
      all.entries.insert(all.entries.end(), page->entries.begin(),
                         page->entries.end());
      all.next_cursor = page->next_cursor;
    }
  }

  // Pull's entries; a failed pull fails the test with its error.
  std::vector<TelemetryStream::Entry> Entries(std::size_t i,
                                              const std::string& topic) {
    auto chunk = Pull(i, topic);
    if (!chunk.ok()) {
      ADD_FAILURE() << "FetchWindow(" << topic << ") on " << peers_[i].name
                    << ": " << chunk.error().ToString();
      return {};
    }
    return chunk->entries;
  }

  // Index of the topic's primary per the configured ring.
  std::size_t PrimaryOf(const std::string& topic) {
    std::vector<std::string> names;
    for (const ClusterPeer& p : peers_) names.push_back(p.name);
    PlacementRing ring(names);
    const std::string primary = ring.ReplicasFor(topic, 2).front();
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (peers_[i].name == primary) return i;
    }
    return 0;
  }

  std::vector<ClusterPeer> peers_;
  std::vector<std::unique_ptr<TestNode>> nodes_;
};

Sample MakeSample(TimeNs timestamp, double value) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  return sample;
}

TEST_F(ClusterNetTest, ReplicatedPublishLandsOnQuorum) {
  ClusterClient client(peers_);
  const std::string topic = "rep.cpu";
  const TimeNs base = RealClock::Instance().Now();
  for (int i = 0; i < 32; ++i) {
    auto id = client.Publish(topic, base + i, MakeSample(base + i, 10.0 + i));
    ASSERT_TRUE(id.ok()) << id.error().ToString();
    EXPECT_EQ(*id, static_cast<std::uint64_t>(i));
  }
  // The two ring replicas hold byte-identical streams.
  std::vector<std::string> names;
  for (const ClusterPeer& p : peers_) names.push_back(p.name);
  PlacementRing ring(names);
  const auto replicas = ring.ReplicasFor(topic, 2);
  std::size_t holders = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const bool is_replica = std::count(replicas.begin(), replicas.end(),
                                       peers_[i].name) > 0;
    if (!is_replica) continue;
    const auto entries = Entries(i, topic);
    ++holders;
    ASSERT_EQ(entries.size(), 32u) << peers_[i].name;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      EXPECT_EQ(entries[k].id, k);
      EXPECT_EQ(entries[k].timestamp, base + static_cast<TimeNs>(k));
      EXPECT_DOUBLE_EQ(entries[k].value.value, 10.0 + static_cast<double>(k));
    }
  }
  EXPECT_EQ(holders, 2u);
}

// A sample whose own timestamp differs from its entry timestamp is refused
// on the topic's primary before it is replicated, so both replicas hold
// the same rows with the same ids: the accepted samples, in order.
TEST_F(ClusterNetTest, MismatchedTimestampsAreRefusedOnThePrimary) {
  const TimeNs base = RealClock::Instance().Now();
  PublishBatchMsg msg;
  for (const char* topic : {"one.cpu", "one.mem"}) {
    PublishBatchMsg::Run& run = msg.runs.emplace_back();
    run.topic = topic;
    for (int i = 0; i < 4; ++i) {
      const TimeNs ts = base + static_cast<TimeNs>(msg.SampleCount());
      run.entries.push_back({0, ts, MakeSample(ts, static_cast<double>(i))});
    }
  }
  msg.runs[0].entries[1].value.timestamp += 7;  // sample 1
  msg.runs[1].entries[0].value.timestamp -= 1;  // sample 4
  msg.runs[1].entries[3].value.timestamp = 0;   // sample 7
  ClusterClient client(peers_);
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok()) << ack.error().ToString();
  EXPECT_EQ(ack->count, 8u);
  EXPECT_EQ(ack->error_count, 3u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ack->Failed(i), i == 1 || i == 4 || i == 7) << "sample " << i;
  }
  EXPECT_EQ(ack->first_error_code, ErrorCode::kInvalidArgument);

  std::vector<std::string> names;
  for (const ClusterPeer& p : peers_) names.push_back(p.name);
  PlacementRing ring(names);
  for (std::size_t r = 0; r < msg.runs.size(); ++r) {
    const PublishBatchMsg::Run& run = msg.runs[r];
    SCOPED_TRACE(run.topic);
    std::vector<TelemetryStream::Entry> accepted;
    for (const TelemetryStream::Entry& entry : run.entries) {
      if (entry.value.timestamp == entry.timestamp) accepted.push_back(entry);
    }
    ASSERT_EQ(accepted.size(), r == 0 ? 3u : 2u);
    for (const std::string& replica : ring.ReplicasFor(run.topic, 2)) {
      std::size_t i = 0;
      while (peers_[i].name != replica) ++i;
      const auto entries = Entries(i, run.topic);
      ASSERT_EQ(entries.size(), accepted.size()) << replica;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        EXPECT_EQ(entries[k].id, k) << replica;
        EXPECT_EQ(entries[k].timestamp, accepted[k].timestamp) << replica;
        EXPECT_EQ(entries[k].value.timestamp, accepted[k].timestamp)
            << replica;
        EXPECT_EQ(entries[k].value.value, accepted[k].value.value) << replica;
      }
    }
  }
}

TEST_F(ClusterNetTest, NonPrimaryForwardsToPrimary) {
  const std::string topic = "fwd.mem";
  const std::size_t primary = PrimaryOf(topic);
  const std::size_t other = (primary + 1) % kNodes;
  ApolloClient client(ClientFor(other, "forwarder"));
  const TimeNs base = RealClock::Instance().Now();
  auto id = client.Publish(topic, base, MakeSample(base, 3.5));
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  EXPECT_EQ(*id, 0u);
  // The primary holds it even though the publish hit another node.
  const auto entries = Entries(primary, topic);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].value.value, 3.5);
}

TEST_F(ClusterNetTest, PublishSurvivesPrimaryDeath) {
  const std::string topic = "failover.io";
  ClusterClient client(peers_);
  const TimeNs base = RealClock::Instance().Now();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        client.Publish(topic, base + i, MakeSample(base + i, 1.0 + i)).ok());
  }
  const std::size_t primary = PrimaryOf(topic);
  nodes_[primary]->daemon->Stop();
  nodes_[primary]->daemon.reset();

  // Wait for a survivor to declare the primary dead, then publish again:
  // the ring walk refills the replica set from the survivors, and with
  // two of three nodes alive quorum 2 stays meetable.
  const std::size_t witness = (primary + 1) % kNodes;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool dead_seen = false;
  while (std::chrono::steady_clock::now() < deadline && !dead_seen) {
    const ClusterMap map = nodes_[witness]->daemon->cluster()->Snapshot();
    const Member* m = map.Find(peers_[primary].name);
    dead_seen = m != nullptr && m->state == MemberState::kDead;
    if (!dead_seen) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(dead_seen) << "survivors never declared the killed node dead";

  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool published = false;
  std::uint64_t last_id = 0;
  while (std::chrono::steady_clock::now() < deadline2 && !published) {
    auto id = client.Publish(topic, base + 100, MakeSample(base + 100, 99.0));
    if (id.ok()) {
      published = true;
      last_id = *id;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(published) << "publish never succeeded after failover";
  // Both survivors hold the post-failover entry (full-width replica set).
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == primary) continue;
    const auto entries = Entries(i, topic);
    ASSERT_FALSE(entries.empty()) << peers_[i].name;
    EXPECT_EQ(entries.back().id, last_id) << peers_[i].name;
    EXPECT_DOUBLE_EQ(entries.back().value.value, 99.0) << peers_[i].name;
  }
}

TEST_F(ClusterNetTest, RestartedNodeResyncsFromPeers) {
  const std::string topic = "resync.nvme";
  ClusterClient client(peers_);
  const TimeNs base = RealClock::Instance().Now();
  const std::size_t primary = PrimaryOf(topic);

  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        client.Publish(topic, base + i, MakeSample(base + i, 5.0 + i)).ok());
  }
  // Kill the primary, lose its state entirely (fresh broker), publish more
  // while it is down, then bring it back on the same port.
  nodes_[primary]->daemon->Stop();
  nodes_[primary]->daemon.reset();
  nodes_[primary]->executor.reset();
  nodes_[primary]->broker.reset();

  const auto deadline0 =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int extra = 0;
  while (std::chrono::steady_clock::now() < deadline0 && extra < 8) {
    auto id = client.Publish(topic, base + 50 + extra,
                             MakeSample(base + 50 + extra, 100.0 + extra));
    if (id.ok()) {
      ++extra;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_EQ(extra, 8) << "failover publishes never drained";

  nodes_[primary] = MakeNode(primary);
  ASSERT_TRUE(nodes_[primary]->daemon->Start().ok());

  // The rejoining node must pull the full 24-entry tail before serving;
  // compare byte-for-byte against the surviving base replica (it held the
  // first 16 as secondary and took the rest over as failover primary).
  std::vector<std::string> names;
  for (const ClusterPeer& p : peers_) names.push_back(p.name);
  const std::string second =
      PlacementRing(names).ReplicasFor(topic, 2)[1];
  std::size_t witness = (primary + 1) % kNodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (peers_[i].name == second) witness = i;
  }
  const auto reference = Entries(witness, topic);
  ASSERT_EQ(reference.size(), 24u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  // Until the resync lands, the revived node may not hold the topic yet.
  std::vector<TelemetryStream::Entry> revived;
  while (std::chrono::steady_clock::now() < deadline) {
    auto chunk = Pull(primary, topic);
    if (chunk.ok()) revived = chunk->entries;
    if (revived.size() == reference.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(revived.size(), reference.size()) << "resync never completed";
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(revived[k].id, reference[k].id);
    EXPECT_EQ(revived[k].timestamp, reference[k].timestamp);
    EXPECT_DOUBLE_EQ(revived[k].value.value, reference[k].value.value);
  }
}

// A catch-up that needs several pages and crosses the source's eviction:
// while the topic's primary is down, more samples are published than the
// 4,096-row ring holds, so the revived node's resync starts at the
// source's first id, takes 2,048-entry pages and ends on a short page.
TEST_F(ClusterNetTest, ResyncPagesAcrossTheSourcesEviction) {
  const std::string topic = "resync.pages";
  ClusterClient client(peers_);
  const TimeNs base = RealClock::Instance().Now();
  const std::size_t primary = PrimaryOf(topic);
  ASSERT_TRUE(client.Publish(topic, base, MakeSample(base, 0.0)).ok());

  nodes_[primary]->daemon->Stop();
  nodes_[primary]->daemon.reset();
  nodes_[primary]->executor.reset();
  nodes_[primary]->broker.reset();

  // 6,000 samples in batches of 500; a batch the cluster NACKs while it
  // notices the death is sent again.
  constexpr int kBatch = 500;
  constexpr int kBatches = 12;
  const auto deadline0 =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int b = 0; b < kBatches;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline0)
        << "failover publishes never drained";
    PublishBatchMsg msg;
    PublishBatchMsg::Run& run = msg.runs.emplace_back();
    run.topic = topic;
    for (int i = 0; i < kBatch; ++i) {
      const TimeNs ts = base + 1 + b * kBatch + i;
      run.entries.push_back({0, ts, MakeSample(ts, static_cast<double>(ts))});
    }
    auto ack = client.PublishBatch(msg);
    if (ack.ok() && ack->error_count == 0) {
      ++b;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  std::vector<std::string> names;
  for (const ClusterPeer& p : peers_) names.push_back(p.name);
  const std::string second = PlacementRing(names).ReplicasFor(topic, 2)[1];
  std::size_t witness = (primary + 1) % kNodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (peers_[i].name == second) witness = i;
  }
  const auto reference = Entries(witness, topic);
  ASSERT_EQ(reference.size(), 4096u);
  ASSERT_GT(reference.front().id, 0u) << "the source never evicted";

  const std::uint64_t resynced_before =
      GlobalTelemetry().cluster_resync_entries.Value();
  nodes_[primary] = MakeNode(primary);
  ASSERT_TRUE(nodes_[primary]->daemon->Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::vector<TelemetryStream::Entry> revived;
  while (std::chrono::steady_clock::now() < deadline) {
    auto pulled = Pull(primary, topic);
    if (pulled.ok()) revived = pulled->entries;
    if (revived.size() == reference.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(revived.size(), reference.size()) << "resync never completed";
  for (std::size_t k = 0; k < reference.size(); ++k) {
    ASSERT_EQ(revived[k].id, reference[k].id) << k;
    EXPECT_EQ(revived[k].timestamp, reference[k].timestamp) << k;
    EXPECT_EQ(revived[k].value.value, reference[k].value.value) << k;
  }
  EXPECT_GE(GlobalTelemetry().cluster_resync_entries.Value() - resynced_before,
            reference.size());
}

TEST_F(ClusterNetTest, ClusterQueryRoutesAndSurvivesNodeDeath) {
  ClusterClient publisher(peers_);
  const TimeNs base = RealClock::Instance().Now();
  for (const char* topic : {"q.alpha", "q.beta"}) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(publisher
                      .Publish(topic, base + i,
                               MakeSample(base + i, 10.0 + i))
                      .ok());
    }
  }
  std::vector<RemoteNode> remote;
  for (const ClusterPeer& p : peers_) {
    remote.push_back(RemoteNode{p.name, p.host, p.port});
  }
  RemoteQueryOptions options;
  options.cluster_mode = true;
  options.node_deadline = Millis(1500);
  options.connect_timeout = Millis(300);
  options.connect_retry.max_attempts = 1;
  RemoteQueryEngine engine(remote, options);

  const std::string sql =
      "SELECT COUNT(Metric), LAST(Metric) FROM q.alpha UNION "
      "SELECT COUNT(Metric), LAST(Metric) FROM q.beta";
  auto rs = engine.Execute(sql);
  ASSERT_TRUE(rs.ok()) << rs.error().ToString();
  EXPECT_FALSE(rs->degraded);
  ASSERT_EQ(rs->rows.size(), 2u);
  for (const auto& row : rs->rows) {
    EXPECT_DOUBLE_EQ(row.values[0], 8.0);
    EXPECT_DOUBLE_EQ(row.values[1], 17.0);
  }
  // Replication must not double-count: each table answered exactly once.

  // Kill q.alpha's primary; the engine re-routes to the surviving replica
  // and the same query still returns fresh, identical rows.
  const std::size_t victim = PrimaryOf("q.alpha");
  nodes_[victim]->daemon->Stop();
  nodes_[victim]->daemon.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool fresh = false;
  while (std::chrono::steady_clock::now() < deadline && !fresh) {
    auto again = engine.Execute(sql);
    ASSERT_TRUE(again.ok()) << again.error().ToString();
    if (!again->degraded && again->rows.size() == 2) {
      for (const auto& row : again->rows) {
        EXPECT_DOUBLE_EQ(row.values[0], 8.0);
        EXPECT_DOUBLE_EQ(row.values[1], 17.0);
      }
      fresh = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(fresh) << "query never recovered a fresh answer after death";
}

// Satellite: with EVERY node unreachable the engine must neither hang nor
// crash — it returns the last-known-good rows, marked degraded, within the
// configured deadlines. Covers both routing modes.
TEST_F(ClusterNetTest, AllNodesUnreachableServesDegradedCache) {
  ClusterClient publisher(peers_);
  const TimeNs base = RealClock::Instance().Now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(publisher
                    .Publish("lkg.cpu", base + i, MakeSample(base + i, 2.0))
                    .ok());
  }
  std::vector<RemoteNode> remote;
  for (const ClusterPeer& p : peers_) {
    remote.push_back(RemoteNode{p.name, p.host, p.port});
  }
  for (const bool cluster_mode : {true, false}) {
    RemoteQueryOptions options;
    options.cluster_mode = cluster_mode;
    options.node_deadline = Millis(400);
    options.connect_timeout = Millis(150);
    options.connect_retry.max_attempts = 1;
    RemoteQueryEngine engine(remote, options);
    const std::string sql = "SELECT COUNT(Metric) FROM lkg.cpu";
    auto warm = engine.Execute(sql);
    ASSERT_TRUE(warm.ok()) << warm.error().ToString();
    ASSERT_FALSE(warm->rows.empty());

    for (auto& node : nodes_) {
      if (node->daemon != nullptr) node->daemon->Stop();
    }
    const auto start = std::chrono::steady_clock::now();
    auto rs = engine.Execute(sql);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(rs.ok()) << rs.error().ToString();
    EXPECT_TRUE(rs->degraded);
    ASSERT_EQ(rs->rows.size(), warm->rows.size());
    EXPECT_DOUBLE_EQ(rs->rows[0].values[0], warm->rows[0].values[0]);
    // Bounded: per-node deadline plus re-route and map-refresh overhead,
    // nowhere near a hang.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              5000);

    if (cluster_mode) {
      // Restart daemons for the second (broadcast) iteration.
      for (std::size_t i = 0; i < kNodes; ++i) {
        nodes_[i] = MakeNode(i);
        ASSERT_TRUE(nodes_[i]->daemon->Start().ok());
      }
      WaitForAllAlive();
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(publisher
                        .Publish("lkg.cpu", base + 10 + i,
                                 MakeSample(base + 10 + i, 2.0))
                        .ok());
      }
    }
  }
}

}  // namespace
}  // namespace apollo::net
