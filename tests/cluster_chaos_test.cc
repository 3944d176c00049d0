// Cluster chaos: three real apollod processes (fork+exec of the example
// binary, path injected via APOLLOD_PATH), replication factor 2, write
// quorum 2. A publish storm runs while one node takes SIGKILL; the
// contract under test is the acked-write guarantee — every publish the
// cluster ACKNOWLEDGED is still present, byte-for-byte, on the survivors
// and queryable — plus catch-up: the revived node reads back what it
// missed and serves identical streams again.
//
// Accounting is exact: each ack's (id, timestamp, value) tuple is
// recorded at publish time and checked against the survivors' streams,
// read through paged kFetchWindow calls. Publishes that FAILED during the
// failover window are allowed to be absent (at-least-once, not
// exactly-once); acked ones are not.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "common/clock.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/remote_query.h"

#ifndef APOLLOD_PATH
#error "APOLLOD_PATH must point at the apollod example binary"
#endif

namespace apollo::net {
namespace {

// Bind-then-close port reservation: hold all sockets until every port is
// picked so the kernel can't hand one out twice.
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

struct DaemonProc {
  pid_t pid = -1;
  int stdin_fd = -1;  // held open: apollod exits on stdin EOF

  void Kill() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
    if (stdin_fd >= 0) {
      ::close(stdin_fd);
      stdin_fd = -1;
    }
  }
};

DaemonProc SpawnApollod(const std::string& members, const std::string& self) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[0], STDIN_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(APOLLOD_PATH, APOLLOD_PATH, "--cluster", members.c_str(),
            "--cluster-self", self.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(fds[0]);
  DaemonProc proc;
  proc.pid = pid;
  proc.stdin_fd = fds[1];
  return proc;
}

struct AckedSample {
  std::uint64_t id;
  TimeNs timestamp;
  double value;
};

class ClusterChaosTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 3;

  void SetUp() override {
    const auto ports = PickFreePorts(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      ClusterPeer peer;
      peer.name = "127.0.0.1:" + std::to_string(ports[i]);
      peer.host = "127.0.0.1";
      peer.port = ports[i];
      peers_.push_back(peer);
      if (i > 0) members_ += ",";
      members_ += peer.name;
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      procs_.push_back(SpawnApollod(members_, peers_[i].name));
    }
    ASSERT_TRUE(WaitForAliveCount(kNodes)) << "cluster never converged";
  }

  void TearDown() override {
    for (DaemonProc& proc : procs_) proc.Kill();
  }

  // Polls any reachable node's map until `want` members are alive.
  bool WaitForAliveCount(std::size_t want) {
    ClusterClient client(peers_);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (client.RefreshMap().ok()) {
        const auto map = client.map();
        std::size_t alive = 0;
        for (const cluster::Member& m : map->members) {
          if (m.state == cluster::MemberState::kAlive) ++alive;
        }
        if (alive >= want) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  }

  ClientConfig ClientFor(std::size_t i) {
    ClientConfig config;
    config.host = peers_[i].host;
    config.port = peers_[i].port;
    config.client_name = "chaos-checker";
    config.connect_retry.max_attempts = 1;
    return config;
  }

  // Full stream of `topic` on node `i`, paged through kFetchWindow; empty
  // when unreachable/unknown.
  std::vector<TelemetryStream::Entry> Entries(std::size_t i,
                                              const std::string& topic) {
    ApolloClient client(ClientFor(i));
    std::vector<TelemetryStream::Entry> entries;
    for (std::uint64_t cursor = 0;;) {
      auto page = client.FetchWindow(topic, cursor);
      if (!page.ok()) return {};
      if (page->entries.empty()) return entries;
      entries.insert(entries.end(), page->entries.begin(),
                     page->entries.end());
      cursor = page->next_cursor;
    }
  }

  std::size_t IndexOf(const std::string& name) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (peers_[i].name == name) return i;
    }
    return kNodes;
  }

  std::vector<ClusterPeer> peers_;
  std::string members_;
  std::vector<DaemonProc> procs_;
};

TEST_F(ClusterChaosTest, SigkillLosesNoAcknowledgedSample) {
  const std::vector<std::string> topics = {"storm.cpu", "storm.mem",
                                           "storm.net", "storm.nvme"};
  // Kill the primary of the first topic: the hardest case, since both its
  // placement AND the in-flight replication stream break at once.
  std::vector<std::string> names;
  for (const ClusterPeer& p : peers_) names.push_back(p.name);
  const cluster::PlacementRing ring(names);
  const std::size_t victim = IndexOf(ring.ReplicasFor(topics[0], 2).front());
  ASSERT_LT(victim, kNodes);

  ClusterClient client(peers_);
  std::map<std::string, std::vector<AckedSample>> acked;
  const TimeNs base = RealClock::Instance().Now();
  constexpr int kStorm = 360;
  constexpr int kKillAt = 120;
  int failed = 0;
  bool post_failover_ack = false;  // victim's topic acked after the kill
  for (int seq = 0; seq < kStorm; ++seq) {
    if (seq == kKillAt) {
      ::kill(procs_[victim].pid, SIGKILL);
      ::waitpid(procs_[victim].pid, nullptr, 0);
      procs_[victim].pid = -1;
    }
    const std::string& topic = topics[seq % topics.size()];
    Sample sample;
    sample.timestamp = base + seq;
    sample.value = 1000.0 * (seq % topics.size()) + seq;
    auto id = client.Publish(topic, sample.timestamp, sample);
    if (id.ok()) {
      acked[topic].push_back(AckedSample{*id, sample.timestamp, sample.value});
      if (seq > kKillAt && topic == topics[0]) post_failover_ack = true;
    } else {
      ++failed;  // allowed during the failover window
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::size_t total_acked = 0;
  for (const auto& [topic, samples] : acked) total_acked += samples.size();
  // The storm must have real coverage on both sides of the kill.
  ASSERT_GT(total_acked, static_cast<std::size_t>(kStorm) / 2)
      << "only " << total_acked << " acked, " << failed << " failed";
  // Write availability on the victim's topic must come back. The storm
  // can drain faster than dead-detection fires, so keep publishing
  // (bounded) until failover lands — the assertion is that failover
  // works, not that the storm outlasted the suspect/dead timeouts.
  const auto failover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int seq = kStorm; !post_failover_ack; ++seq) {
    ASSERT_LT(std::chrono::steady_clock::now(), failover_deadline)
        << "no acked publish on the victim's topic after failover";
    Sample sample;
    sample.timestamp = base + seq;
    sample.value = 1000.0 * 0 + seq;
    auto id = client.Publish(topics[0], sample.timestamp, sample);
    if (id.ok()) {
      acked[topics[0]].push_back(
          AckedSample{*id, sample.timestamp, sample.value});
      post_failover_ack = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Exact accounting: every acked tuple is present, byte-for-byte, on the
  // surviving replica that holds the topic's longest stream.
  for (const auto& [topic, samples] : acked) {
    std::vector<TelemetryStream::Entry> best;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == victim) continue;
      auto entries = Entries(i, topic);
      if (entries.size() > best.size()) best = std::move(entries);
    }
    std::map<std::uint64_t, const TelemetryStream::Entry*> by_id;
    for (const auto& entry : best) by_id[entry.id] = &entry;
    for (const AckedSample& s : samples) {
      auto it = by_id.find(s.id);
      ASSERT_NE(it, by_id.end())
          << topic << " lost acked entry " << s.id << " (value " << s.value
          << ")";
      EXPECT_EQ(it->second->timestamp, s.timestamp);
      EXPECT_DOUBLE_EQ(it->second->value.value, s.value);
    }
  }

  // And queryable: the replica-routed engine answers for every topic with
  // at least the acked row count, within its deadlines, degraded or not.
  std::vector<RemoteNode> remote;
  for (const ClusterPeer& p : peers_) {
    remote.push_back(RemoteNode{p.name, p.host, p.port});
  }
  RemoteQueryOptions options;
  options.cluster_mode = true;
  options.node_deadline = Millis(2000);
  options.connect_timeout = Millis(300);
  options.connect_retry.max_attempts = 1;
  RemoteQueryEngine engine(remote, options);
  for (const auto& [topic, samples] : acked) {
    const auto start = std::chrono::steady_clock::now();
    auto rs = engine.Execute("SELECT COUNT(Metric) FROM " + topic);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(rs.ok()) << topic << ": " << rs.error().ToString();
    ASSERT_EQ(rs->rows.size(), 1u);
    EXPECT_GE(rs->rows[0].values[0], static_cast<double>(samples.size()))
        << topic;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              10000);
  }

  // Revive the victim: it must rejoin, read back what it missed, and
  // serve streams byte-identical to the survivors'.
  procs_[victim] = SpawnApollod(members_, peers_[victim].name);
  ASSERT_TRUE(WaitForAliveCount(kNodes)) << "revived node never rejoined";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (const auto& [topic, samples] : acked) {
    // A node resyncs only the topics the ring places on it; the others
    // are answered by forwarding, not local copies.
    const auto placed = ring.ReplicasFor(topic, 2);
    if (std::count(placed.begin(), placed.end(), peers_[victim].name) == 0) {
      continue;
    }
    std::vector<TelemetryStream::Entry> reference;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == victim) continue;
      auto entries = Entries(i, topic);
      if (entries.size() > reference.size()) reference = std::move(entries);
    }
    ASSERT_FALSE(reference.empty()) << topic;
    std::vector<TelemetryStream::Entry> revived;
    while (std::chrono::steady_clock::now() < deadline) {
      revived = Entries(victim, topic);
      if (revived.size() >= reference.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_EQ(revived.size(), reference.size())
        << topic << " resync incomplete";
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(revived[k].id, reference[k].id) << topic;
      ASSERT_EQ(revived[k].timestamp, reference[k].timestamp) << topic;
      ASSERT_DOUBLE_EQ(revived[k].value.value, reference[k].value.value)
          << topic;
    }
  }

  // The revived node serves queries directly again.
  ApolloClient direct(ClientFor(victim));
  auto reply = direct.Query("SELECT COUNT(Metric) FROM " + topics[0]);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  ASSERT_EQ(reply->result.rows.size(), 1u);
  EXPECT_GE(reply->result.rows[0].values[0],
            static_cast<double>(acked[topics[0]].size()));
}

}  // namespace
}  // namespace apollo::net
