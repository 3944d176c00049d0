// Batched-ingest tests: PublishBatch/ack codec damage sweep (mirrors
// net_frame_test.cc — every mutation of a valid payload must be rejected),
// loopback batch publish with per-sample error-bitmap accounting,
// client-side PublishAsync flush policy with the queued-sample error
// callback, a stub daemon whose short acks must fail every uncovered
// sample, and a 4-client batching stress leg for the tsan matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/messages.h"
#include "net/transport.h"
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

PublishBatchMsg MakeBatch(std::initializer_list<std::pair<const char*, int>>
                              runs) {
  PublishBatchMsg msg;
  TimeNs ts = 0;
  for (const auto& [topic, count] : runs) {
    PublishBatchMsg::Run run;
    run.topic = topic;
    for (int i = 0; i < count; ++i) {
      TelemetryStream::Entry entry;
      entry.timestamp = ts;
      entry.value = MakeSample(ts, static_cast<double>(ts));
      run.entries.push_back(entry);
      ++ts;
    }
    msg.runs.push_back(std::move(run));
  }
  return msg;
}

// ---- codec -----------------------------------------------------------------

TEST(NetBatch, BatchRoundtripPreservesRunsAndOrder) {
  PublishBatchMsg msg = MakeBatch({{"a.cpu", 3}, {"a.mem", 2}, {"a.cpu", 1}});
  // A predicted sample whose own timestamp differs from its entry's: both
  // timestamps and the provenance cross the wire unchanged.
  TelemetryStream::Entry& predicted = msg.runs[2].entries[0];
  predicted.value.timestamp = 123456789;
  predicted.value.provenance = Provenance::kPredicted;
  Payload payload;
  msg.Encode(payload);
  PublishBatchMsg decoded;
  ASSERT_TRUE(PublishBatchMsg::Decode(payload, decoded));
  ASSERT_EQ(decoded.runs.size(), 3u);
  EXPECT_EQ(decoded.runs[0].topic, "a.cpu");
  EXPECT_EQ(decoded.runs[1].topic, "a.mem");
  ASSERT_EQ(decoded.runs[0].entries.size(), 3u);
  ASSERT_EQ(decoded.runs[2].entries.size(), 1u);
  EXPECT_EQ(decoded.SampleCount(), 6u);
  EXPECT_EQ(decoded.runs[1].entries[1].timestamp, 4);
  EXPECT_EQ(decoded.runs[1].entries[1].value.value, 4.0);
  EXPECT_EQ(decoded.runs[1].entries[1].value.provenance,
            Provenance::kMeasured);
  const TelemetryStream::Entry& round = decoded.runs[2].entries[0];
  EXPECT_EQ(round.timestamp, 5);
  EXPECT_EQ(round.value.timestamp, 123456789);
  EXPECT_EQ(round.value.value, 5.0);
  EXPECT_EQ(round.value.provenance, Provenance::kPredicted);
}

// Every mutation of a valid batch payload must be rejected outright — a
// decoder that "mostly" parses a damaged batch would publish garbage
// samples under a valid frame CRC.
TEST(NetBatch, DamageSweepRejectsMutations) {
  PublishBatchMsg msg = MakeBatch({{"t0", 2}, {"t1", 1}});
  Payload good;
  msg.Encode(good);
  PublishBatchMsg decoded;
  ASSERT_TRUE(PublishBatchMsg::Decode(good, decoded));

  struct DamageCase {
    const char* name;
    std::function<void(Payload&)> mutate;
  };
  const DamageCase kCases[] = {
      {"zero run count",
       [](Payload& p) { p[0] = p[1] = p[2] = p[3] = 0; }},
      {"oversized run count",
       [](Payload& p) { p[0] = p[1] = p[2] = p[3] = 0xFF; }},
      {"run count inflated past payload",
       [](Payload& p) { p[0] = 0x07; }},
      // Offset 4 starts run 0: u32 topic length, "t0", u32 sample count.
      {"zero-sample run", [](Payload& p) { p[10] = 0; }},
      {"per-sample count inflated past payload",
       [](Payload& p) { p[10] = 0xFF; }},
      {"per-sample count past batch cap",
       [](Payload& p) { p[10] = p[11] = p[12] = p[13] = 0xFF; }},
      {"truncated batch", [](Payload& p) { p.pop_back(); }},
      {"truncated mid-sample", [](Payload& p) { p.resize(p.size() - 13); }},
      {"trailing garbage", [](Payload& p) { p.push_back(0xEE); }},
      {"topic length inflated", [](Payload& p) { p[4] = 0xFF; }},
  };
  for (const DamageCase& damage : kCases) {
    SCOPED_TRACE(damage.name);
    Payload bad = good;
    damage.mutate(bad);
    PublishBatchMsg out;
    EXPECT_FALSE(PublishBatchMsg::Decode(bad, out));
  }
}

TEST(NetBatch, EmptyBatchRejected) {
  PublishBatchMsg empty;
  Payload payload;
  empty.Encode(payload);  // run_count = 0
  PublishBatchMsg out;
  EXPECT_FALSE(PublishBatchMsg::Decode(payload, out));
}

TEST(NetBatch, AckRoundtripCarriesBitmap) {
  PublishBatchAckMsg ack;
  ack.Resize(19);
  ack.last_entry_id = 77;
  ack.MarkFailed(0);
  ack.MarkFailed(8);
  ack.MarkFailed(18);
  ack.first_error_code = ErrorCode::kNotFound;
  ack.first_error = "no such topic";
  Payload payload;
  ack.Encode(payload);
  PublishBatchAckMsg decoded;
  ASSERT_TRUE(PublishBatchAckMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.count, 19u);
  EXPECT_EQ(decoded.error_count, 3u);
  EXPECT_EQ(decoded.last_entry_id, 77u);
  EXPECT_TRUE(decoded.Failed(0));
  EXPECT_TRUE(decoded.Failed(8));
  EXPECT_TRUE(decoded.Failed(18));
  EXPECT_FALSE(decoded.Failed(1));
  EXPECT_FALSE(decoded.Failed(17));
  EXPECT_EQ(decoded.first_error_code, ErrorCode::kNotFound);
  EXPECT_EQ(decoded.first_error, "no such topic");
}

TEST(NetBatch, AckRejectsBitmapGeometryMismatch) {
  PublishBatchAckMsg ack;
  ack.Resize(9);  // 2 bitmap bytes
  Payload payload;
  ack.Encode(payload);
  // count=9 claims 2 bitmap bytes; shrink the declared bitmap to 1.
  payload[16] = 1;
  PublishBatchAckMsg out;
  EXPECT_FALSE(PublishBatchAckMsg::Decode(payload, out));
}

TEST(NetBatch, AckRejectsErrorCountAboveCount) {
  PublishBatchAckMsg ack;
  ack.Resize(4);
  Payload payload;
  ack.Encode(payload);
  payload[12] = 5;  // error_count > count
  PublishBatchAckMsg out;
  EXPECT_FALSE(PublishBatchAckMsg::Decode(payload, out));
}

// ---- loopback daemon -------------------------------------------------------

class NetBatchLoopbackTest : public ::testing::Test {
 protected:
  NetBatchLoopbackTest()
      : clock_(RealClock::Instance()), broker_(clock_), executor_(broker_) {}

  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("b.cpu").ok());
    ASSERT_TRUE(broker_.CreateTopic("b.mem").ok());
    StartDaemon({});
  }

  void StartDaemon(DaemonConfig config) {
    daemon_ = std::make_unique<ApolloDaemon>(broker_, executor_, config);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    broker_.AttachFaultInjector(nullptr);
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

TEST_F(NetBatchLoopbackTest, BatchPublishLandsEveryRunInOrder) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 5}, {"b.mem", 3}, {"b.cpu", 2}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  EXPECT_EQ(ack->count, 10u);
  EXPECT_EQ(ack->error_count, 0u);

  TelemetryStream* cpu = *broker_.GetTopic("b.cpu");
  TelemetryStream* mem = *broker_.GetTopic("b.mem");
  EXPECT_EQ(cpu->NextId(), 7u);
  EXPECT_EQ(mem->NextId(), 3u);
  std::uint64_t cursor = 0;
  auto entries = cpu->Read(cursor);
  ASSERT_EQ(entries.size(), 7u);
  // Runs 0 and 2 arrived in batch order: timestamps 0..4 then 8..9.
  EXPECT_EQ(entries[4].timestamp, 4);
  EXPECT_EQ(entries[5].timestamp, 8);
  EXPECT_EQ(entries[6].timestamp, 9);
}

TEST_F(NetBatchLoopbackTest, UnknownTopicRunFailsOnlyItsSamples) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 2}, {"b.ghost", 3}, {"b.mem", 1}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->count, 6u);
  EXPECT_EQ(ack->error_count, 3u);
  EXPECT_FALSE(ack->Failed(0));
  EXPECT_FALSE(ack->Failed(1));
  EXPECT_TRUE(ack->Failed(2));
  EXPECT_TRUE(ack->Failed(3));
  EXPECT_TRUE(ack->Failed(4));
  EXPECT_FALSE(ack->Failed(5));
  EXPECT_EQ(ack->first_error_code, ErrorCode::kNotFound);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 2u);
  EXPECT_EQ((*broker_.GetTopic("b.mem"))->NextId(), 1u);
}

// A row has one time: a sample whose own timestamp differs from its entry
// timestamp is refused with kInvalidArgument before it gets an id, and
// only its bit is set. The rest land with contiguous ids and read back
// with one timestamp.
TEST_F(NetBatchLoopbackTest, MismatchedTimestampsAreRefusedPerSample) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 4}, {"b.mem", 3}});
  msg.runs[0].entries[1].value.timestamp += 7;  // sample 1
  msg.runs[1].entries[0].value.timestamp -= 1;  // sample 4
  msg.runs[1].entries[2].value.timestamp = 0;   // sample 6
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  EXPECT_EQ(ack->count, 7u);
  EXPECT_EQ(ack->error_count, 3u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(ack->Failed(i), i == 1 || i == 4 || i == 6) << "sample " << i;
  }
  EXPECT_EQ(ack->first_error_code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(ack->last_entry_id, 0u);  // b.mem's one accepted sample

  const auto expect_window = [&](const std::string& topic,
                                 const std::vector<TimeNs>& timestamps) {
    SCOPED_TRACE(topic);
    auto window = client.FetchWindow(topic, 0);
    ASSERT_TRUE(window.ok()) << window.error().ToString();
    ASSERT_EQ(window->entries.size(), timestamps.size());
    for (std::size_t i = 0; i < timestamps.size(); ++i) {
      const TelemetryStream::Entry& entry = window->entries[i];
      EXPECT_EQ(entry.id, i);
      EXPECT_EQ(entry.timestamp, timestamps[i]);
      EXPECT_EQ(entry.value.timestamp, timestamps[i]);
      EXPECT_EQ(entry.value.value, static_cast<double>(timestamps[i]));
    }
  };
  expect_window("b.cpu", {0, 2, 3});
  expect_window("b.mem", {5});
}

TEST_F(NetBatchLoopbackTest, BatchDecodeFaultRejectsWholeBatch) {
  FaultInjector injector;
  injector.Arm({.site = FaultSite::kBatchDecode,
                .topic = "b.cpu",
                .fire_on_hits = {0}});
  broker_.AttachFaultInjector(&injector);
  const std::uint64_t errors_before =
      GlobalTelemetry().net_batch_decode_errors.Value();

  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 4}});
  auto ack = client.PublishBatch(msg);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 0u);
  EXPECT_EQ(GlobalTelemetry().net_batch_decode_errors.Value(),
            errors_before + 1);

  // The fault fired once; the retry goes through.
  auto retry = client.PublishBatch(msg);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->error_count, 0u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 4u);
}

// Only bytes 0 and 1 name a provenance. A batch carrying any other byte is
// malformed as a whole: it is refused with kParseError before any of its
// samples reaches a ring.
TEST_F(NetBatchLoopbackTest, UnknownProvenanceByteRejectsWholeBatch) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 3}, {"b.mem", 2}});
  msg.runs[1].entries[1].value.provenance = static_cast<Provenance>(2);
  auto ack = client.PublishBatch(msg);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.error().code(), ErrorCode::kParseError);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 0u);
  EXPECT_EQ((*broker_.GetTopic("b.mem"))->NextId(), 0u);
}

TEST_F(NetBatchLoopbackTest, ScriptedPublishDropsSetExactBitmapBits) {
  FaultInjector injector;
  // Entries 1 and 3 of the b.cpu run drop; everything else lands.
  injector.Arm({.site = FaultSite::kPublish,
                .topic = "b.cpu",
                .fire_on_hits = {1, 3}});
  broker_.AttachFaultInjector(&injector);

  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 5}, {"b.mem", 2}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->error_count, 2u);
  EXPECT_FALSE(ack->Failed(0));
  EXPECT_TRUE(ack->Failed(1));
  EXPECT_FALSE(ack->Failed(2));
  EXPECT_TRUE(ack->Failed(3));
  EXPECT_FALSE(ack->Failed(4));
  EXPECT_FALSE(ack->Failed(5));
  EXPECT_FALSE(ack->Failed(6));
  EXPECT_EQ(ack->first_error_code, ErrorCode::kUnavailable);

  // The survivors landed in order: timestamps 0, 2, 4.
  TelemetryStream* cpu = *broker_.GetTopic("b.cpu");
  ASSERT_EQ(cpu->NextId(), 3u);
  std::uint64_t cursor = 0;
  auto entries = cpu->Read(cursor);
  EXPECT_EQ(entries[0].timestamp, 0);
  EXPECT_EQ(entries[1].timestamp, 2);
  EXPECT_EQ(entries[2].timestamp, 4);
  EXPECT_EQ((*broker_.GetTopic("b.mem"))->NextId(), 2u);
}

TEST_F(NetBatchLoopbackTest, PublishAsyncFlushesAtBatchSize) {
  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 8;
  config.batch_max_delay = kNsPerSec;  // size-triggered only
  ApolloClient client(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0 * i))
                    .ok());
  }
  // Two full batches flushed; 4 samples still queued.
  EXPECT_EQ(client.PendingSamples(), 4u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 16u);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.PendingSamples(), 0u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 20u);
}

TEST_F(NetBatchLoopbackTest, PerSampleRejectionsSurfaceThroughCallback) {
  FaultInjector injector;
  injector.Arm({.site = FaultSite::kPublish,
                .topic = "b.cpu",
                .fire_on_hits = {2}});
  broker_.AttachFaultInjector(&injector);

  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 4;
  ApolloClient client(config);
  std::vector<std::pair<std::string, TimeNs>> failed;
  client.SetPublishErrorCallback(
      [&](const std::string& topic, TimeNs ts, const Sample&,
          const Error& error) {
        failed.emplace_back(topic, ts);
        EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
      });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0))
                    .ok());
  }
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].first, "b.cpu");
  EXPECT_EQ(failed[0].second, 2);
}

// The reconnect-drop fix: samples sitting in the client queue when the
// connection dies must surface through the error callback, not vanish.
TEST_F(NetBatchLoopbackTest, QueuedSamplesSurfaceOnConnectionLoss) {
  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 1000;  // keep everything queued
  config.batch_max_delay = kNsPerSec;
  ApolloClient client(config);
  ASSERT_TRUE(client.Ping().ok());

  std::vector<TimeNs> orphaned;
  client.SetPublishErrorCallback(
      [&](const std::string& topic, TimeNs ts, const Sample&,
          const Error& error) {
        EXPECT_EQ(topic, "b.cpu");
        EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
        orphaned.push_back(ts);
      });
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0))
                    .ok());
  }
  EXPECT_EQ(client.PendingSamples(), 7u);
  client.Close();
  ASSERT_EQ(orphaned.size(), 7u);
  EXPECT_EQ(orphaned[0], 0);
  EXPECT_EQ(orphaned[6], 6);
  EXPECT_EQ(client.PendingSamples(), 0u);
}

// ---- short ack (stub daemon) ----------------------------------------------

// Stands in for a daemon: answers the hello, then acks every
// kPublishBatch with count = 0, an ack that covers none of the samples
// sent.
class ShortAckServer final : public FrameHandler {
 public:
  ShortAckServer()
      : loop_(RealClock::Instance()), server_(loop_, ServerConfig{}, *this) {}
  ~ShortAckServer() override { Stop(); }
  ShortAckServer(const ShortAckServer&) = delete;
  ShortAckServer& operator=(const ShortAckServer&) = delete;

  Status Start() {
    Status status = server_.Start();
    if (!status.ok()) return status;
    thread_ = std::thread([this] {
      loop_.Run(std::numeric_limits<TimeNs>::max(), /*stop_when_idle=*/false);
    });
    return status;
  }
  void Stop() {
    if (!thread_.joinable()) return;
    loop_.Stop();
    thread_.join();
    server_.Stop();
  }
  std::uint16_t port() const { return server_.port(); }
  int batches() const { return batches_.load(); }

  void OnFrame(Connection& conn, const Frame& frame) override {
    Payload payload;
    if (frame.type == MsgType::kHello) {
      HelloAckMsg ack;
      ack.server_name = "short-ack";
      ack.Encode(payload);
      conn.SendFrame(MsgType::kHelloAck, frame.request_id, payload);
    } else if (frame.type == MsgType::kPublishBatch) {
      ++batches_;
      PublishBatchAckMsg ack;  // count = 0
      ack.Encode(payload);
      conn.SendFrame(MsgType::kPublishBatchAck, frame.request_id, payload);
    }
  }

 private:
  EventLoop loop_;
  Server server_;
  std::atomic<int> batches_{0};
  std::thread thread_;
};

// An ack whose count is below the samples sent must not ack the rest:
// every sample it does not cover fails, each exactly once.
TEST(NetBatchShortAck, ShortAckFailsEverySample) {
  ShortAckServer stub;
  ASSERT_TRUE(stub.Start().ok());
  ClientConfig config;
  config.port = stub.port();
  config.client_name = "short-ack";
  config.request_timeout = 2 * kNsPerSec;
  config.batch_max_samples = 1000;  // flush only when asked
  config.batch_max_delay = kNsPerSec;
  ApolloClient client(config);

  auto id = client.Publish("b.cpu", 1, MakeSample(1, 1.0));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), ErrorCode::kParseError);

  std::vector<TimeNs> failed;
  client.SetPublishErrorCallback(
      [&](const std::string& topic, TimeNs ts, const Sample&,
          const Error& error) {
        EXPECT_EQ(topic, "b.cpu");
        EXPECT_EQ(error.code(), ErrorCode::kParseError);
        failed.push_back(ts);
      });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", 10 + i, MakeSample(10 + i, 1.0))
                    .ok());
  }
  EXPECT_EQ(client.Flush().code(), ErrorCode::kParseError);
  EXPECT_EQ(failed, (std::vector<TimeNs>{10, 11, 12}));
  EXPECT_EQ(client.PendingSamples(), 0u);
  EXPECT_EQ(stub.batches(), 2);
  // Nothing is left to surface a second time when the connection closes.
  client.Close();
  EXPECT_EQ(failed.size(), 3u);
  stub.Stop();
}

// ---- tsan stress leg -------------------------------------------------------

// Four concurrent batching clients, each its own topic: exercises the
// writev outbound queue, the batch handler, and Stream::AppendBatch under
// real thread interleaving. Name matches the tsan filter ("Stress"/"Net").
TEST(NetBatchStress, FourBatchingClientsConcurrent) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  constexpr int kClients = 4;
  constexpr std::uint64_t kPerClient = 2000;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(
        broker.CreateTopic("stress.c" + std::to_string(c), kLocalNode, 4096)
            .ok());
  }
  aqe::Executor executor(broker);
  ApolloDaemon daemon(broker, executor);
  ASSERT_TRUE(daemon.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      ClientConfig config;
      config.port = daemon.port();
      config.client_name = "stress-" + std::to_string(c);
      config.batch_max_samples = 128;
      ApolloClient client(config);
      const std::string topic = "stress.c" + std::to_string(c);
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const TimeNs ts = static_cast<TimeNs>(i);
        if (!client.PublishAsync(topic, ts, MakeSample(ts, 1.0)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      if (!client.Flush().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ((*broker.GetTopic("stress.c" + std::to_string(c)))->NextId(),
              kPerClient)
        << "client " << c;
  }
  daemon.Stop();
}

}  // namespace
}  // namespace apollo::net
