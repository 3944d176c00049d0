// ApolloClient: synchronous client for the wire protocol.
//
// The client owns one non-blocking socket and drives it with poll(2)
// deadlines, so a stalled or dead daemon can never hang a caller past the
// configured request timeout. Connect() retries with the shared
// RetryPolicy/BackoffForAttempt plumbing (the same backoff the broker's
// publish path uses) and then performs the Hello/HelloAck version
// handshake.
//
// Request/response correlation is by frame request_id; unsolicited
// kDeliver frames that arrive while a response is awaited are buffered and
// drained with TakeDeliveries(). Round-trip times are recorded into the
// apollo_net_request_rtt_ns histogram.
//
// Batched ingest: PublishAsync queues samples and flushes them as one
// kPublishBatch frame when the queue reaches batch_max_samples or the
// oldest queued sample has waited batch_max_delay — one round trip and one
// ack for the whole batch instead of one per sample. Samples that were
// queued or in flight when the connection dies are never dropped silently:
// each one is surfaced through the publish-error callback. Publish is the
// same path with a batch of one: every sample reaches the daemon in a
// kPublishBatch frame.
//
// Thread contract: one thread per client (no internal locking) — the
// scatter-gather engine gives each node its own client.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "net/messages.h"
#include "obs/metrics.h"

namespace apollo::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string client_name = "apollo-client";
  // Admission-control identity carried in the hello handshake. Empty maps
  // to the daemon's "default" tenant.
  std::string tenant;
  // Deadline for one request/response round trip.
  TimeNs request_timeout = 5 * kNsPerSec;
  // Deadline for one TCP connect attempt; attempts retry per connect_retry.
  TimeNs connect_timeout = kNsPerSec;
  RetryPolicy connect_retry;
  // --- PublishAsync flush policy ---
  // Flush when this many samples are queued...
  std::size_t batch_max_samples = 256;
  // ...or when the oldest queued sample has waited this long (checked on
  // each PublishAsync; sparse producers should call Flush explicitly).
  TimeNs batch_max_delay = 2 * kNsPerMs;
};

class ApolloClient {
 public:
  explicit ApolloClient(ClientConfig config);
  ~ApolloClient();

  ApolloClient(const ApolloClient&) = delete;
  ApolloClient& operator=(const ApolloClient&) = delete;

  // Connects with retry/backoff and handshakes. Idempotent when connected.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  // --- requests (auto-connect if needed; kError replies surface as the
  // carried Error) ---

  Status Ping();
  // One synchronous publish: a kPublishBatch round trip carrying one
  // sample. Returns the assigned entry id, or the daemon's per-sample
  // error (unknown topic, injected drop, cluster quorum NACK).
  Expected<std::uint64_t> Publish(const std::string& topic, TimeNs timestamp,
                                  const Sample& sample);

  // --- batched ingest ---

  // Invoked once per sample that was accepted into the queue but
  // definitively not acked: per-sample batch rejections, flush failures
  // (including an ack that does not cover the whole batch), and samples
  // still queued when the connection closes.
  using PublishErrorCallback = std::function<void(
      const std::string& topic, TimeNs timestamp, const Sample& sample,
      const Error& error)>;
  void SetPublishErrorCallback(PublishErrorCallback callback) {
    publish_error_ = std::move(callback);
  }

  // Queues one sample for the next batch flush (see ClientConfig flush
  // policy). Errors from a triggered flush are returned here but the
  // per-sample accounting always goes through the error callback.
  Status PublishAsync(const std::string& topic, TimeNs timestamp,
                      const Sample& sample);

  // Flushes every queued sample now (chunked at kMaxBatchSamples).
  Status Flush();
  std::size_t PendingSamples() const { return queue_.size(); }

  // One explicit batch round trip (callers that pre-build runs; the bench
  // uses this to pin the batch size exactly). `flags` lets cluster nodes
  // mark forwarded runs (kFlagForwarded). An ack whose count differs from
  // the number of samples sent fails with kParseError.
  Expected<PublishBatchAckMsg> PublishBatch(const PublishBatchMsg& msg,
                                            std::uint16_t flags = 0);

  Expected<SubscribeAckMsg> Subscribe(const std::string& topic,
                                      std::uint64_t cursor = kCursorTail);

  // --- continuous queries ---

  // Registers `sql` (SUBSCRIBE SELECT ... [EVERY n unit]) under `name`.
  // If this client already holds a registration with that name, its last
  // received (epoch, seq) is echoed so the daemon resumes instead of
  // restarting — which is also how reconnect resume works.
  Expected<CQRegisterAckMsg> CQRegister(const std::string& name,
                                        const std::string& sql);
  // Cancels a continuous query by the id CQRegister returned. The
  // daemon-side record (and resume history) is discarded.
  Status CQCancel(std::uint64_t cq_id);
  // Drains kCQUpdate pushes buffered so far (each carries the full
  // materialized row set at its (epoch, seq); replace, don't merge).
  std::vector<CQUpdateMsg> TakeCQUpdates();
  // Reads the socket until at least one CQ update is buffered or
  // `timeout` elapses.
  bool WaitForCQUpdates(TimeNs timeout);
  // One page of `topic` from `cursor` on: at most `max_entries` entries,
  // and at most what one reply frame carries under the daemon's outbound
  // bound. Read on from next_cursor until a page comes back empty.
  Expected<WindowMsg> FetchWindow(const std::string& topic,
                                  std::uint64_t cursor,
                                  std::uint64_t max_entries = UINT64_MAX);
  // `partial` sets kFlagPartial: the daemon executes only the UNION
  // branches it serves (scatter-gather).
  Expected<ResultMsg> Query(const std::string& sql, bool partial = false);
  Expected<std::vector<TopicInfo>> ListTopics();
  // One Prometheus text-exposition scrape of the daemon's registry.
  Expected<std::string> FetchMetricsText();

  // --- cluster fabric round trips (daemon-to-daemon and map refresh) ---

  Expected<HeartbeatMsg> Heartbeat(const HeartbeatMsg& msg);
  Expected<ReplicateAckMsg> Replicate(const ReplicateMsg& msg);
  Expected<cluster::ClusterMap> FetchClusterMap();

  // Freshest kClusterMap push received so far (request_id 0 frames are
  // buffered like deliveries); nullopt when none arrived since the last
  // take. Higher-version pushes replace buffered lower ones.
  std::optional<cluster::ClusterMap> TakeClusterMapPush();

  // --- pushed deliveries ---

  // Drains kDeliver frames buffered so far (including any received while
  // waiting for responses).
  std::vector<DeliverMsg> TakeDeliveries();
  // Reads the socket until at least one delivery is buffered or `timeout`
  // elapses. Returns true when a delivery is available.
  bool WaitForDeliveries(TimeNs timeout);

  // Injector consulted at kNetSend/kNetRecv/kConnDrop on this client's
  // side of the connection (not owned; null detaches).
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }

  const std::string& server_name() const { return server_name_; }
  const ClientConfig& config() const { return config_; }

 private:
  struct QueuedSample {
    std::string topic;
    TelemetryStream::Entry entry;  // id unused
  };

  Status ConnectOnce();
  // Replays this client's sessions (push subscriptions from their
  // client-side cursors, CQ registrations with resume epoch/seq) on a
  // fresh connection. Best-effort per session: one failed replay (e.g. a
  // topic that no longer exists) drops that session without failing the
  // connect.
  void ReestablishSessions();
  Expected<CQRegisterAckMsg> CQRegisterInternal(const std::string& name,
                                                const std::string& sql,
                                                std::uint64_t resume_epoch,
                                                std::uint64_t resume_seq);
  // Flushes the first min(queue size, kMaxBatchSamples) queued samples.
  Status FlushChunk();
  // Reports `error` through the callback for each sample in `samples`.
  void SurfaceErrors(const std::vector<QueuedSample>& samples,
                     const Error& error);
  Status SendRequest(MsgType type, std::uint32_t request_id,
                     const Payload& payload, std::uint16_t flags);
  // Sends `type` and waits for the response frame with the same request
  // id, surfacing kError replies. `expect` is the success frame type.
  Expected<Frame> Roundtrip(MsgType type, const Payload& payload,
                            MsgType expect, std::uint16_t flags = 0);
  // Every request: encodes `request`, makes the round trip and decodes
  // the `expect` reply; one that does not decode is kParseError.
  template <typename Reply, typename Request>
  Expected<Reply> Call(MsgType type, const Request& request, MsgType expect,
                       std::uint16_t flags = 0);
  // Reads frames until one with `request_id` arrives or `deadline` (abs
  // clock time) passes. request_id 0 returns on the first buffered
  // delivery instead. Buffers kDeliver frames either way.
  Expected<Frame> WaitFrame(std::uint32_t request_id, TimeNs deadline);
  // One poll+read step; feeds the parser and fans frames into pending_ /
  // deliveries_.
  Status ReadSome(TimeNs deadline);
  Status FailClose(ErrorCode code, const std::string& message);

  ClientConfig config_;
  Clock& clock_;
  int fd_ = -1;
  std::uint32_t next_request_id_ = 1;
  FrameParser parser_;
  std::deque<Frame> pending_;
  std::vector<DeliverMsg> deliveries_;
  std::vector<CQUpdateMsg> cq_updates_;
  std::optional<cluster::ClusterMap> pushed_map_;
  std::string server_name_;

  // Session state surviving disconnects, replayed by ReestablishSessions.
  // Subscription cursors advance as deliveries are buffered, so a replayed
  // subscribe picks up exactly past the last entry this client saw.
  struct SubSession {
    std::string topic;
    std::uint64_t cursor = 0;
    std::uint64_t sub_id = 0;
  };
  std::vector<SubSession> sub_sessions_;
  // CQ registrations track the last (epoch, seq) buffered, echoed on
  // re-register so the daemon resumes without duplicate or missed
  // updates.
  struct CQSession {
    std::string name;
    std::string sql;
    std::uint64_t cq_id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
  };
  std::vector<CQSession> cq_sessions_;
  bool reestablishing_ = false;
  std::atomic<FaultInjector*> fault_{nullptr};
  obs::Histogram rtt_;

  // Batching state.
  std::vector<QueuedSample> queue_;
  TimeNs oldest_queued_ = 0;  // Now() when queue_ went non-empty
  PublishErrorCallback publish_error_;
  obs::Histogram batch_size_;
  obs::Histogram flush_latency_;
};

}  // namespace apollo::net
