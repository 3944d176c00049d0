// Chaos-leg tests for the network fabric: injected connection drops with
// exact counter accounting, scatter-gather with stalled/dead nodes serving
// last-known-good degraded answers, transport backpressure, and a
// 4-client concurrency stress (the TSan centerpiece).
//
// All daemons bind port 0 and the tests discover the port; waits are
// bounded deadline loops, never fixed sleeps on the assertion path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "aqe/remote.h"
#include "common/clock.h"
#include "common/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/remote_query.h"
#include "net/transport.h"
#include "pubsub/broker.h"
#include "pubsub/telemetry.h"

namespace apollo::net {
namespace {

Sample MakeSample(TimeNs timestamp, double value) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  sample.provenance = Provenance::kMeasured;
  return sample;
}

// One self-contained daemon node: broker + executor + daemon.
struct TestNode {
  explicit TestNode(const std::string& name)
      : broker(RealClock::Instance()), executor(broker) {
    DaemonConfig config;
    config.server.server_name = name;
    daemon = std::make_unique<ApolloDaemon>(broker, executor, config);
  }
  ~TestNode() { daemon->Stop(); }

  void Seed(const std::string& topic, int entries, double base_value) {
    ASSERT_TRUE(broker.CreateTopic(topic).ok());
    RealClock& clock = RealClock::Instance();
    for (int i = 0; i < entries; ++i) {
      const TimeNs now = clock.Now();
      const Sample sample = MakeSample(now, base_value + i);
      ASSERT_TRUE(broker.Publish(topic, kLocalNode, now, sample).ok());
    }
  }

  Broker broker;
  aqe::Executor executor;
  std::unique_ptr<ApolloDaemon> daemon;
};

ClientConfig ClientFor(std::uint16_t port, const char* name) {
  ClientConfig config;
  config.host = "127.0.0.1";
  config.port = port;
  config.client_name = name;
  config.request_timeout = kNsPerSec;
  return config;
}

TEST(NetChaos, ConnDropsAccountedExactly) {
  TestNode node("drop-node");
  node.Seed("chaos.load", 4, 1.0);
  ASSERT_TRUE(node.daemon->Start().ok());

  FaultInjector fault(0xC0FFEE);
  FaultSpec drop;
  drop.site = FaultSite::kConnDrop;
  drop.topic = "ping";  // only ping frames; the reconnect handshake is safe
  drop.probability = 0.25;
  fault.Arm(drop);
  node.daemon->server().AttachFaultInjector(&fault);

  const std::uint64_t drops_before = GlobalTelemetry().net_conn_drops.Value();
  ApolloClient client(ClientFor(node.daemon->port(), "drop-client"));
  constexpr int kPings = 80;
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < kPings; ++i) {
    if (client.Ping().ok()) {
      ++ok;
    } else {
      ++failed;
    }
  }
  const std::uint64_t fires = fault.Fires(FaultSite::kConnDrop);
  // Every injected drop is counted exactly once, and every drop failed
  // exactly one ping (the connection died before the frame dispatched).
  EXPECT_EQ(GlobalTelemetry().net_conn_drops.Value() - drops_before, fires);
  EXPECT_EQ(static_cast<std::uint64_t>(failed), fires);
  EXPECT_EQ(ok + failed, kPings);
  EXPECT_GT(fires, 0u);  // p=0.25 over 80 pings: a zero-fire run is a bug
  EXPECT_GT(ok, 0);
  node.daemon->server().AttachFaultInjector(nullptr);
}

TEST(NetChaos, RecvDropsAccountedExactly) {
  TestNode node("recv-node");
  node.Seed("chaos.recv", 2, 5.0);
  ASSERT_TRUE(node.daemon->Start().ok());

  FaultInjector fault(0xFEED);
  FaultSpec drop;
  drop.site = FaultSite::kNetRecv;
  drop.topic = "publish_batch";
  drop.probability = 1.0;
  drop.max_fires = 3;
  fault.Arm(drop);
  node.daemon->server().AttachFaultInjector(&fault);

  const std::uint64_t drops_before = GlobalTelemetry().net_recv_drops.Value();
  ClientConfig config = ClientFor(node.daemon->port(), "recv-client");
  config.request_timeout = 200 * kNsPerMs;  // dropped requests time out fast
  ApolloClient client(config);
  RealClock& clock = RealClock::Instance();
  int failed = 0;
  for (int i = 0; i < 6; ++i) {
    const TimeNs now = clock.Now();
    auto id = client.Publish("chaos.recv", now, MakeSample(now, 9.0));
    if (!id.ok()) ++failed;
  }
  // Exactly max_fires requests were swallowed; the rest succeeded.
  EXPECT_EQ(GlobalTelemetry().net_recv_drops.Value() - drops_before, 3u);
  EXPECT_EQ(fault.Fires(FaultSite::kNetRecv), 3u);
  EXPECT_EQ(failed, 3);
  node.daemon->server().AttachFaultInjector(nullptr);
}

TEST(NetChaos, StalledNodeServesLastKnownGoodDegraded) {
  TestNode node_a("node-a");
  TestNode node_b("node-b");
  node_a.Seed("siteA.load", 4, 10.0);
  node_b.Seed("siteB.load", 4, 20.0);
  ASSERT_TRUE(node_a.daemon->Start().ok());
  ASSERT_TRUE(node_b.daemon->Start().ok());

  RemoteQueryOptions options;
  options.node_deadline = 500 * kNsPerMs;
  options.connect_timeout = 200 * kNsPerMs;
  RemoteQueryEngine engine(
      {
          {"a", "127.0.0.1", node_a.daemon->port()},
          {"b", "127.0.0.1", node_b.daemon->port()},
      },
      options);
  const std::string sql =
      "SELECT LAST(Metric) FROM siteA.load UNION "
      "SELECT LAST(Metric) FROM siteB.load";

  // Round 1: both nodes healthy — fresh merge, nothing degraded.
  auto fresh = engine.Execute(sql);
  ASSERT_TRUE(fresh.ok()) << fresh.error().ToString();
  ASSERT_EQ(fresh->rows.size(), 2u);
  EXPECT_FALSE(fresh->degraded);
  for (const NodeOutcome& outcome : engine.LastOutcomes()) {
    EXPECT_TRUE(outcome.ok) << outcome.node << ": " << outcome.error;
    EXPECT_FALSE(outcome.from_cache);
    ASSERT_EQ(outcome.served_tables.size(), 1u);
    EXPECT_EQ(outcome.served_tables[0], outcome.node == "a"
                                            ? "siteA.load"
                                            : "siteB.load");
  }

  // Round 2: node b stalls (its daemon swallows every query frame, so the
  // per-node deadline expires). The merged answer must still carry b's
  // rows — last-known-good from the cache, marked degraded + stale.
  FaultInjector stall(0xB0B);
  FaultSpec swallow;
  swallow.site = FaultSite::kNetRecv;
  swallow.topic = "query";
  swallow.probability = 1.0;
  stall.Arm(swallow);
  node_b.daemon->server().AttachFaultInjector(&stall);

  const std::uint64_t timeouts_before =
      GlobalTelemetry().net_node_timeouts.Value();
  const std::uint64_t fallbacks_before =
      GlobalTelemetry().net_degraded_fallbacks.Value();
  auto degraded = engine.Execute(sql);
  ASSERT_TRUE(degraded.ok()) << degraded.error().ToString();
  ASSERT_EQ(degraded->rows.size(), 2u);
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GT(degraded->max_staleness_ns, 0);
  for (const auto& row : degraded->rows) {
    if (row.source == "siteA.load") {
      EXPECT_FALSE(row.degraded) << "healthy node's rows must stay fresh";
    } else {
      ASSERT_EQ(row.source, "siteB.load");
      EXPECT_TRUE(row.degraded);
      EXPECT_GT(row.staleness_ns, 0);
      EXPECT_EQ(row.values.size(), 1u);
      EXPECT_EQ(row.values[0], 23.0);  // LAST of 20,21,22,23 — cached value
    }
  }
  EXPECT_EQ(GlobalTelemetry().net_node_timeouts.Value(), timeouts_before + 1);
  EXPECT_EQ(GlobalTelemetry().net_degraded_fallbacks.Value(),
            fallbacks_before + 1);
  bool saw_cache_outcome = false;
  for (const NodeOutcome& outcome : engine.LastOutcomes()) {
    if (outcome.node == "b") {
      EXPECT_FALSE(outcome.ok);
      EXPECT_TRUE(outcome.from_cache);
      saw_cache_outcome = true;
    }
  }
  EXPECT_TRUE(saw_cache_outcome);

  // Round 3: node b dies outright — same degraded-from-cache contract.
  node_b.daemon->server().AttachFaultInjector(nullptr);
  node_b.daemon->Stop();
  auto after_death = engine.Execute(sql);
  ASSERT_TRUE(after_death.ok());
  ASSERT_EQ(after_death->rows.size(), 2u);
  EXPECT_TRUE(after_death->degraded);
}

TEST(NetChaos, DeadNodeWithoutCacheDegradesButQuerySucceeds) {
  TestNode node_a("lone-node");
  node_a.Seed("solo.load", 3, 1.0);
  ASSERT_TRUE(node_a.daemon->Start().ok());

  // Reserve a port nobody listens on.
  std::uint16_t dead_port = 0;
  {
    auto fd = TcpListen("127.0.0.1", 0, dead_port);
    ASSERT_TRUE(fd.ok());
    ::close(*fd);
  }

  RemoteQueryOptions options;
  options.node_deadline = 300 * kNsPerMs;
  options.connect_timeout = 100 * kNsPerMs;
  RemoteQueryEngine engine(
      {
          {"live", "127.0.0.1", node_a.daemon->port()},
          {"ghost", "127.0.0.1", dead_port},
      },
      options);
  auto result = engine.Execute("SELECT LAST(Metric) FROM solo.load");
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].source, "solo.load");
  // The ghost contributed nothing and has no cache: the answer itself is
  // flagged degraded even though every returned row is fresh.
  EXPECT_TRUE(result->degraded);
  for (const NodeOutcome& outcome : engine.LastOutcomes()) {
    if (outcome.node == "ghost") {
      EXPECT_FALSE(outcome.ok);
      EXPECT_FALSE(outcome.from_cache);
      EXPECT_FALSE(outcome.error.empty());
    }
  }
}

// The last-known-good cache follows the daemon's shed-cache rule: once it
// holds aqe::kLastGoodCacheEntries answers it is cleared, so a client that
// keeps issuing new query texts does not grow it without bound.
TEST(NetChaos, RemoteQueryCacheIsBounded) {
  TestNode node("bounded-node");
  node.Seed("solo.load", 3, 1.0);
  ASSERT_TRUE(node.daemon->Start().ok());
  RemoteQueryOptions options;
  options.node_deadline = 300 * kNsPerMs;
  options.connect_timeout = 100 * kNsPerMs;
  RemoteQueryEngine engine({{"n", "127.0.0.1", node.daemon->port()}},
                           options);
  const auto text = [](std::size_t i) {
    return "SELECT COUNT(*) FROM solo.load WHERE Timestamp >= " +
           std::to_string(i);
  };
  // One more distinct text than the cache holds: the last answer finds it
  // full and clears it.
  for (std::size_t i = 0; i <= aqe::kLastGoodCacheEntries; ++i) {
    ASSERT_TRUE(engine.Execute(text(i)).ok()) << i;
  }
  node.daemon->Stop();

  auto first = engine.Execute(text(0));
  EXPECT_FALSE(first.ok()) << "the first answer is no longer cached";
  ASSERT_EQ(engine.LastOutcomes().size(), 1u);
  EXPECT_FALSE(engine.LastOutcomes()[0].from_cache);

  auto last = engine.Execute(text(aqe::kLastGoodCacheEntries));
  ASSERT_TRUE(last.ok()) << last.error().ToString();
  EXPECT_TRUE(engine.LastOutcomes()[0].from_cache);
  EXPECT_TRUE(last->degraded);
}

// Floods a connection with droppable frames while the peer refuses to
// read: the bounded outbound queue must skip (and count) the overflow
// instead of buffering without limit or killing the connection.
struct FloodHandler final : public FrameHandler {
  static constexpr int kFloodFrames = 200;
  static constexpr std::size_t kFrameBytes = 256 * 1024;

  std::atomic<int> accepted{0};
  std::atomic<bool> done{false};

  void OnFrame(Connection& conn, const Frame& frame) override {
    if (frame.type != MsgType::kPing) return;
    conn.SendFrame(MsgType::kPong, frame.request_id, {});
    const Payload big(kFrameBytes, 0xAA);
    int sent = 0;
    for (int i = 0; i < kFloodFrames; ++i) {
      if (conn.SendFrame(MsgType::kDeliver, 0, big, 0, /*droppable=*/true)) {
        ++sent;
      }
    }
    accepted.store(sent);
    done.store(true);
  }
  void OnClose(Connection&) override {}
};

TEST(NetChaos, BackpressureSkipsDroppableFramesExactly) {
  RealClock& clock = RealClock::Instance();
  EventLoop loop(clock);
  ServerConfig config;
  config.max_outbound_bytes = 1 << 20;  // 1 MiB: far less than the flood
  FloodHandler handler;
  Server server(loop, config, handler);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop_thread(
      [&] { loop.Run(std::numeric_limits<TimeNs>::max(), false); });

  // Raw client socket that does not read until the flood is over.
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  struct timeval read_timeout = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
               sizeof(read_timeout));

  const std::uint64_t skips_before =
      GlobalTelemetry().net_backpressure_skips.Value();
  std::vector<std::uint8_t> ping;
  EncodeFrame(ping, MsgType::kPing, 1, {});
  ASSERT_EQ(::write(fd, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));

  const TimeNs deadline = clock.Now() + 10 * kNsPerSec;
  while (!handler.done.load() && clock.Now() < deadline) {
    clock.SleepFor(kNsPerMs);
  }
  ASSERT_TRUE(handler.done.load());
  const int accepted = handler.accepted.load();
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, FloodHandler::kFloodFrames)
      << "flood never hit the outbound cap — raise kFloodFrames";
  // Every refused frame was counted as a backpressure skip, exactly.
  EXPECT_EQ(GlobalTelemetry().net_backpressure_skips.Value() - skips_before,
            static_cast<std::uint64_t>(FloodHandler::kFloodFrames - accepted));
  // The connection survived the overflow.
  EXPECT_EQ(server.ConnectionCount(), 1u);

  // Drain: the accepted frames (plus the pong) all arrive intact.
  FrameParser parser;
  int frames_received = 0;
  std::vector<std::uint8_t> buf(64 * 1024);
  while (frames_received < accepted + 1) {
    ssize_t n = ::read(fd, buf.data(), buf.size());
    ASSERT_GT(n, 0) << "socket drained before all accepted frames arrived";
    ASSERT_TRUE(parser.Feed(buf.data(), static_cast<std::size_t>(n)));
    Frame frame;
    while (parser.Next(frame)) ++frames_received;
  }
  EXPECT_EQ(frames_received, accepted + 1);

  ::close(fd);
  loop.Stop();
  loop_thread.join();
  server.Stop();
}

TEST(NetChaos, NetStressFourConcurrentClients) {
  TestNode node("stress-node");
  for (int t = 0; t < 4; ++t) {
    node.Seed("stress.t" + std::to_string(t), 2, t * 10.0);
  }
  ASSERT_TRUE(node.daemon->Start().ok());
  const std::uint16_t port = node.daemon->port();

  // A fifth client subscribes and drains deliveries throughout.
  ApolloClient subscriber(ClientFor(port, "stress-subscriber"));
  ASSERT_TRUE(subscriber.Subscribe("stress.t0", /*cursor=*/0).ok());

  constexpr int kIterations = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      const std::string topic = "stress.t" + std::to_string(t);
      const std::string sql = "SELECT LAST(Metric), COUNT(Metric) FROM " +
                              topic;
      ApolloClient client(
          ClientFor(port, ("stress-" + std::to_string(t)).c_str()));
      RealClock& clock = RealClock::Instance();
      for (int i = 0; i < kIterations; ++i) {
        const TimeNs now = clock.Now();
        if (!client.Publish(topic, now, MakeSample(now, i)).ok()) {
          ++failures;
        }
        auto reply = client.Query(sql);
        if (!reply.ok() || reply->result.rows.size() != 1) ++failures;
        if (i % 16 == 0 && !client.Ping().ok()) ++failures;
      }
    });
  }
  std::size_t delivered = 0;
  RealClock& clock = RealClock::Instance();
  const TimeNs deadline = clock.Now() + 20 * kNsPerSec;
  // t0 history (2 entries) + kIterations publishes must all be pushed.
  while (delivered < 2 + kIterations && clock.Now() < deadline) {
    subscriber.WaitForDeliveries(50 * kNsPerMs);
    for (DeliverMsg& delivery : subscriber.TakeDeliveries()) {
      delivered += delivery.entries.size();
    }
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(delivered, static_cast<std::size_t>(2 + kIterations));
}

}  // namespace
}  // namespace apollo::net
