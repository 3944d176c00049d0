// Loopback client <-> daemon integration tests. Every test binds port 0
// and discovers the kernel-assigned port through ApolloDaemon::port() — no
// fixed ports, no sleeps on the request paths.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "pubsub/broker.h"
#include "pubsub/telemetry.h"

namespace apollo::net {
namespace {

Sample MakeSample(TimeNs timestamp, double value,
                  Provenance provenance = Provenance::kMeasured) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  sample.provenance = provenance;
  return sample;
}

// Broker + executor + daemon on an ephemeral port, with two
// seeded topics so aggregate queries have deterministic answers.
class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest()
      : clock_(RealClock::Instance()), broker_(clock_), executor_(broker_) {}

  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("alpha.cpu").ok());
    ASSERT_TRUE(broker_.CreateTopic("alpha.mem").ok());
    const TimeNs base = clock_.Now();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(broker_
                      .Publish("alpha.cpu", kLocalNode, base + i,
                               MakeSample(base + i, 10.0 + i))
                      .ok());
      ASSERT_TRUE(broker_
                      .Publish("alpha.mem", kLocalNode, base + i,
                               MakeSample(base + i, 100.0 + 2 * i))
                      .ok());
    }
    StartDaemon({});
  }

  void StartDaemon(DaemonConfig config) {
    daemon_ = std::make_unique<ApolloDaemon>(broker_, executor_, config);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Stop();
  }

  ClientConfig ClientFor(const char* name) {
    ClientConfig config;
    config.host = "127.0.0.1";
    config.port = daemon_->port();
    config.client_name = name;
    return config;
  }

  RealClock& clock_;
  Broker broker_;
  aqe::Executor executor_;
  std::unique_ptr<ApolloDaemon> daemon_;
};

// Plain TCP connection to 127.0.0.1:port with no handshake, for tests
// that speak raw bytes. A 5 s read timeout turns a missing reply into a
// failed read instead of a hang. Returns -1 on failure.
int ConnectRaw(std::uint16_t port) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  struct timeval read_timeout = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
               sizeof(read_timeout));
  return fd;
}

void ExpectSameRows(const aqe::ResultSet& remote, const aqe::ResultSet& local) {
  EXPECT_EQ(remote.columns, local.columns);
  ASSERT_EQ(remote.rows.size(), local.rows.size());
  for (std::size_t i = 0; i < local.rows.size(); ++i) {
    EXPECT_EQ(remote.rows[i].source, local.rows[i].source) << "row " << i;
    EXPECT_EQ(remote.rows[i].values, local.rows[i].values) << "row " << i;
    EXPECT_EQ(remote.rows[i].degraded, local.rows[i].degraded) << "row " << i;
  }
  EXPECT_EQ(remote.degraded, local.degraded);
}

TEST(NetLoopbackHandshake, HelloCarriesServerName) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  aqe::Executor executor(broker);
  DaemonConfig config;
  config.server.server_name = "node-a";
  ApolloDaemon daemon(broker, executor, config);
  ASSERT_TRUE(daemon.Start().ok());
  ClientConfig client_config;
  client_config.port = daemon.port();
  ApolloClient client(client_config);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.server_name(), "node-a");
  EXPECT_TRUE(client.Ping().ok());
  daemon.Stop();
}

TEST_F(NetLoopbackTest, QueryMatchesInProcessExecutor) {
  ApolloClient client(ClientFor("query-test"));
  const char* kQueries[] = {
      "SELECT MAX(Timestamp), LAST(Metric) FROM alpha.cpu",
      "SELECT AVG(Metric), MIN(Metric), MAX(Metric) FROM alpha.cpu",
      "SELECT SUM(Metric) FROM alpha.mem",
      "SELECT LAST(Metric) FROM alpha.cpu UNION "
      "SELECT LAST(Metric) FROM alpha.mem",
  };
  for (const char* sql : kQueries) {
    SCOPED_TRACE(sql);
    auto local = executor_.Execute(sql);
    ASSERT_TRUE(local.ok()) << local.error().ToString();
    auto remote = client.Query(sql);
    ASSERT_TRUE(remote.ok()) << remote.error().ToString();
    ExpectSameRows(remote->result, *local);
  }
}

// The row-count tokens of one EXPLAIN line, in order: each match of
// `rows[a-z_]*=[0-9]+`, scanning on after the end of the previous match.
std::vector<std::string> RowCountTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t from = 0;
  std::size_t pos = 0;
  while ((pos = line.find("rows", from)) != std::string::npos) {
    std::size_t end = pos + 4;
    while (end < line.size() &&
           ((line[end] >= 'a' && line[end] <= 'z') || line[end] == '_')) {
      ++end;
    }
    const std::size_t digits = end + 1;
    if (end < line.size() && line[end] == '=') {
      end = digits;
      while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    }
    if (end > digits) {
      tokens.push_back(line.substr(pos, end - pos));
      from = end;
    } else {
      from = pos + 1;
    }
  }
  return tokens;
}

TEST_F(NetLoopbackTest, ExplainAnalyzeMatchesRowCounts) {
  ApolloClient client(ClientFor("explain-test"));
  const std::string sql =
      "EXPLAIN ANALYZE SELECT AVG(Metric), MAX(Timestamp) FROM alpha.cpu";
  // Warm the shared plan cache so both profiles report the same cache line.
  ASSERT_TRUE(executor_.Execute(sql).ok());
  auto local = executor_.Execute(sql);
  ASSERT_TRUE(local.ok());
  auto remote = client.Query(sql);
  ASSERT_TRUE(remote.ok()) << remote.error().ToString();
  ASSERT_EQ(remote->result.columns, std::vector<std::string>{"plan"});
  // The daemon appends one profile row the local executor can't know:
  // the requesting tenant's admission accounting.
  ASSERT_EQ(remote->result.rows.size(), local->rows.size() + 1);
  EXPECT_EQ(remote->result.rows.back().source.rfind("admission: tenant=", 0),
            0u);
  // The plan text must agree on every row-count token; only timing differs.
  for (std::size_t i = 0; i < local->rows.size(); ++i) {
    EXPECT_EQ(RowCountTokens(remote->result.rows[i].source),
              RowCountTokens(local->rows[i].source))
        << "plan line " << i;
  }
}

TEST_F(NetLoopbackTest, PublishThenFetchWindowRoundtrip) {
  ASSERT_TRUE(broker_.CreateTopic("net.ingest").ok());
  ApolloClient client(ClientFor("publish-test"));
  // An unknown topic fails that publish with the broker's own error and
  // leaves the connection up for the publishes that follow.
  const TimeNs then = clock_.Now();
  auto missing = client.Publish("net.missing", then, MakeSample(then, 1.0));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(missing.error().message(),
            broker_.Resolve("net.missing").error().message());
  EXPECT_TRUE(client.connected());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    const TimeNs now = clock_.Now();
    auto id = client.Publish("net.ingest", now, MakeSample(now, 1.5 * i));
    ASSERT_TRUE(id.ok()) << id.error().ToString();
    ids.push_back(*id);
  }
  auto window = client.FetchWindow("net.ingest", 0);
  ASSERT_TRUE(window.ok()) << window.error().ToString();
  ASSERT_EQ(window->entries.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(window->entries[i].id, ids[i]);
    EXPECT_EQ(window->entries[i].value.value, 1.5 * static_cast<double>(i));
  }
  // The returned cursor resumes exactly past the window.
  auto rest = client.FetchWindow("net.ingest", window->next_cursor);
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest->entries.empty());
}

// A ring whose whole window is longer than one frame carries under the
// default 4 MiB outbound bound (150,000 rows of 33 wire bytes each).
class NetBigRingTest : public NetLoopbackTest {
 protected:
  static constexpr std::size_t kRows = 150'000;

  void SetUp() override {
    auto stream = broker_.CreateTopic("big", kLocalNode, kRows);
    ASSERT_TRUE(stream.ok());
    std::vector<TelemetryStream::Entry> entries(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto ts = static_cast<TimeNs>(i);
      entries[i] = {0, ts, MakeSample(ts, static_cast<double>(i))};
    }
    (*stream)->AppendBatch(entries.data(), entries.size());
    NetLoopbackTest::SetUp();
  }
};

// A window read returns at most what one reply frame carries, so paging on
// next_cursor from 0 returns every id in order and the connection stays.
TEST_F(NetBigRingTest, FetchWindowPagesPastTheOutboundBound) {
  const std::uint64_t failures = GlobalTelemetry().net_send_failures.Value();
  ApolloClient client(ClientFor("pager"));
  std::uint64_t next_id = 0;
  std::size_t pages = 0;
  for (std::uint64_t cursor = 0;;) {
    auto page = client.FetchWindow("big", cursor);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    if (page->entries.empty()) break;
    ++pages;
    for (const TelemetryStream::Entry& entry : page->entries) {
      ASSERT_EQ(entry.id, next_id);
      ASSERT_EQ(entry.value.value, static_cast<double>(next_id));
      ++next_id;
    }
    ASSERT_EQ(page->next_cursor, next_id);
    cursor = page->next_cursor;
  }
  EXPECT_EQ(next_id, kRows);
  EXPECT_GT(pages, 1u);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(GlobalTelemetry().net_send_failures.Value(), failures);
}

// An answer no frame can carry fails its request with kOutOfRange, which
// is not retryable, and the connection keeps serving.
TEST_F(NetBigRingTest, OversizedAnswerFailsTheRequestNotTheConnection) {
  const std::uint64_t failures = GlobalTelemetry().net_send_failures.Value();
  ApolloClient client(ClientFor("big-query"));
  auto all = client.Query("SELECT Timestamp, Metric FROM big WHERE "
                          "Timestamp >= 0");
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.error().code(), ErrorCode::kOutOfRange)
      << all.error().ToString();
  EXPECT_FALSE(RetryableError(all.error().code()));
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(GlobalTelemetry().net_send_failures.Value(), failures);
  // What fits is still answered, on the same connection.
  auto part = client.Query("SELECT Timestamp, Metric FROM big WHERE "
                           "Timestamp >= 0 LIMIT 100000");
  ASSERT_TRUE(part.ok()) << part.error().ToString();
  EXPECT_EQ(part->result.rows.size(), 100'000u);
  EXPECT_TRUE(client.connected());
}

TEST_F(NetLoopbackTest, SubscribeDeliversSubsequentPublishes) {
  ASSERT_TRUE(broker_.CreateTopic("net.live").ok());
  ApolloClient client(ClientFor("subscribe-test"));
  auto ack = client.Subscribe("net.live");
  ASSERT_TRUE(ack.ok()) << ack.error().ToString();
  for (int i = 0; i < 3; ++i) {
    const TimeNs now = clock_.Now();
    ASSERT_TRUE(client.Publish("net.live", now, MakeSample(now, 7.0 + i)).ok());
  }
  std::vector<TelemetryStream::Entry> received;
  const TimeNs deadline = clock_.Now() + 5 * kNsPerSec;
  while (received.size() < 3 && clock_.Now() < deadline) {
    client.WaitForDeliveries(100 * kNsPerMs);
    for (DeliverMsg& delivery : client.TakeDeliveries()) {
      EXPECT_EQ(delivery.subscription_id, ack->subscription_id);
      EXPECT_EQ(delivery.topic, "net.live");
      for (auto& entry : delivery.entries) received.push_back(entry);
    }
  }
  ASSERT_EQ(received.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(received[i].value.value, 7.0 + i);
  }
}

TEST_F(NetLoopbackTest, SubscribeFromCursorZeroReplaysHistory) {
  ApolloClient client(ClientFor("replay-test"));
  auto ack = client.Subscribe("alpha.cpu", /*cursor=*/0);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->start_cursor, 0u);
  std::size_t received = 0;
  const TimeNs deadline = clock_.Now() + 5 * kNsPerSec;
  while (received < 8 && clock_.Now() < deadline) {
    client.WaitForDeliveries(100 * kNsPerMs);
    for (DeliverMsg& delivery : client.TakeDeliveries()) {
      received += delivery.entries.size();
    }
  }
  EXPECT_EQ(received, 8u);
}

TEST_F(NetLoopbackTest, ListTopicsMatchesBroker) {
  ApolloClient client(ClientFor("topics-test"));
  auto remote = client.ListTopics();
  ASSERT_TRUE(remote.ok());
  std::set<std::string> remote_names;
  for (const TopicInfo& info : *remote) remote_names.insert(info.name);
  std::set<std::string> local_names;
  for (const TopicInfo& info : broker_.ListTopics()) {
    local_names.insert(info.name);
  }
  EXPECT_EQ(remote_names, local_names);
}

TEST_F(NetLoopbackTest, MetricsScrapeServesRegistry) {
  ApolloClient client(ClientFor("metrics-test"));
  ASSERT_TRUE(client.Ping().ok());
  auto text = client.FetchMetricsText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("apollo_net_messages_received_total"),
            std::string::npos);
  EXPECT_NE(text->find("apollo_net_connections_opened_total"),
            std::string::npos);
}

TEST_F(NetLoopbackTest, QueryErrorsSurfaceAndConnectionSurvives) {
  ApolloClient client(ClientFor("error-test"));
  auto reply = client.Query("SELECT LAST(Metric) FROM no.such.topic");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code(), ErrorCode::kNotFound);
  auto bad = client.Query("SELEKT nonsense");
  ASSERT_FALSE(bad.ok());
  // The connection is still healthy after server-side errors.
  EXPECT_TRUE(client.Ping().ok());
  auto good = client.Query("SELECT LAST(Metric) FROM alpha.cpu");
  EXPECT_TRUE(good.ok());
}

TEST_F(NetLoopbackTest, PartialQuerySkipsUnservedBranches) {
  ApolloClient client(ClientFor("partial-test"));
  const std::string sql =
      "SELECT LAST(Metric) FROM alpha.cpu UNION "
      "SELECT LAST(Metric) FROM beta.remote_only";
  // Non-partial: the unknown topic is an error.
  ASSERT_FALSE(client.Query(sql).ok());
  // Partial: the daemon executes only the branch it serves.
  auto partial = client.Query(sql, /*partial=*/true);
  ASSERT_TRUE(partial.ok()) << partial.error().ToString();
  ASSERT_EQ(partial->result.rows.size(), 1u);
  EXPECT_EQ(partial->result.rows[0].source, "alpha.cpu");
  EXPECT_EQ(partial->served_tables,
            std::vector<std::string>{"alpha.cpu"});
  // A partial query served entirely elsewhere returns an empty result, not
  // an error.
  auto none = client.Query("SELECT LAST(Metric) FROM beta.remote_only",
                           /*partial=*/true);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->result.rows.empty());
  EXPECT_TRUE(none->served_tables.empty());
}

TEST_F(NetLoopbackTest, MalformedFrameCountsProtocolError) {
  ApolloClient client(ClientFor("proto-test"));
  ASSERT_TRUE(client.Ping().ok());
  const std::uint64_t before = GlobalTelemetry().net_protocol_errors.Value();
  // A raw socket spews garbage: the daemon must count a protocol error and
  // close that connection without disturbing the healthy client.
  const int fd = ConnectRaw(daemon_->port());
  ASSERT_GE(fd, 0);
  const char garbage_bytes[32] = {'n', 'o', 't', ' ', 'a', ' ', 'f', 'r',
                                  'a', 'm', 'e'};
  ASSERT_EQ(::write(fd, garbage_bytes, sizeof(garbage_bytes)),
            static_cast<ssize_t>(sizeof(garbage_bytes)));
  // The daemon closes the connection; read() observing EOF proves it.
  char buf[16];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_GE(GlobalTelemetry().net_protocol_errors.Value(), before + 1);
  // The well-behaved client is unaffected.
  EXPECT_TRUE(client.Ping().ok());
}

// Retired message types stay retired: the single-sample publish (type
// byte 5) and the resync pull (type byte 29) an older peer may still send
// get the daemon's "unexpected message type" error, and the same
// connection keeps working.
TEST_F(NetLoopbackTest, RetiredPublishTypeIsRejectedAndConnectionSurvives) {
  // Removing message types renumbered nothing that survives.
  EXPECT_EQ(static_cast<int>(MsgType::kPublishBatch), 19);
  EXPECT_EQ(static_cast<int>(MsgType::kHeartbeat), 23);
  EXPECT_EQ(static_cast<int>(MsgType::kCQUpdate), 35);

  const int fd = ConnectRaw(daemon_->port());
  ASSERT_GE(fd, 0);
  auto send_frame = [fd](MsgType type, std::uint32_t request_id,
                         const Payload& payload) {
    std::vector<std::uint8_t> wire;
    EncodeFrame(wire, type, request_id, payload);
    return ::write(fd, wire.data(), wire.size()) ==
           static_cast<ssize_t>(wire.size());
  };
  FrameParser parser;
  auto next_frame = [fd, &parser](Frame& frame) {
    while (!parser.Next(frame)) {
      std::uint8_t buf[4096];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0 || !parser.Feed(buf, static_cast<std::size_t>(n))) {
        return false;
      }
    }
    return true;
  };

  HelloMsg hello;
  hello.client_name = "old-client";
  Payload payload;
  hello.Encode(payload);
  ASSERT_TRUE(send_frame(MsgType::kHello, 1, payload));
  Frame frame;
  ASSERT_TRUE(next_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kHelloAck);

  // The retired layout: topic, entry timestamp, sample timestamp, value,
  // provenance.
  payload.clear();
  WireWriter old_publish(payload);
  old_publish.Str("alpha.cpu");
  old_publish.I64(clock_.Now());
  old_publish.I64(clock_.Now());
  old_publish.F64(42.0);
  old_publish.U8(0);
  ASSERT_TRUE(send_frame(static_cast<MsgType>(5), 2, payload));
  ASSERT_TRUE(next_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 2u);
  ErrorMsg error;
  ASSERT_TRUE(ErrorMsg::Decode(frame.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kInvalidArgument);
  EXPECT_NE(error.message.find("unexpected message type"), std::string::npos)
      << error.message;

  // The retired resync pull: topic, from id, u32 max entries.
  payload.clear();
  WireWriter old_pull(payload);
  old_pull.Str("alpha.cpu");
  old_pull.U64(0);
  old_pull.U32(4096);
  ASSERT_TRUE(send_frame(static_cast<MsgType>(29), 4, payload));
  ASSERT_TRUE(next_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 4u);
  ASSERT_TRUE(ErrorMsg::Decode(frame.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kInvalidArgument);
  EXPECT_NE(error.message.find("unexpected message type"), std::string::npos)
      << error.message;

  ASSERT_TRUE(send_frame(MsgType::kPing, 3, {}));
  ASSERT_TRUE(next_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kPong);
  EXPECT_EQ(frame.request_id, 3u);
  ::close(fd);
  // Nothing was appended by the rejected frame.
  EXPECT_EQ((*broker_.GetTopic("alpha.cpu"))->NextId(), 8u);
}

TEST_F(NetLoopbackTest, IdleConnectionsAreReaped) {
  daemon_->Stop();
  DaemonConfig config;
  config.server.idle_timeout = 50 * kNsPerMs;
  StartDaemon(config);

  const std::uint64_t before = GlobalTelemetry().net_idle_closes.Value();
  ApolloClient client(ClientFor("idle-test"));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_EQ(daemon_->server().ConnectionCount(), 1u);
  // No further traffic: the sweep must reap the connection.
  const TimeNs deadline = clock_.Now() + 5 * kNsPerSec;
  while (daemon_->server().ConnectionCount() > 0 && clock_.Now() < deadline) {
    clock_.SleepFor(kNsPerMs);
  }
  EXPECT_EQ(daemon_->server().ConnectionCount(), 0u);
  EXPECT_GE(GlobalTelemetry().net_idle_closes.Value(), before + 1);
}

TEST_F(NetLoopbackTest, CountersAccountBytesAndMessages) {
  const std::uint64_t sent_before =
      GlobalTelemetry().net_messages_sent.Value();
  const std::uint64_t received_before =
      GlobalTelemetry().net_messages_received.Value();
  const std::uint64_t bytes_before = GlobalTelemetry().net_bytes_sent.Value();
  ApolloClient client(ClientFor("counter-test"));
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  // Hello + 2 pings arrived; ack + 2 pongs went out (server side counters).
  EXPECT_GE(GlobalTelemetry().net_messages_received.Value(),
            received_before + 3);
  EXPECT_GE(GlobalTelemetry().net_messages_sent.Value(), sent_before + 3);
  EXPECT_GE(GlobalTelemetry().net_bytes_sent.Value(),
            bytes_before + 3 * kHeaderSize);
}

}  // namespace
}  // namespace apollo::net
