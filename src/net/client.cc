#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/transport.h"
#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo::net {

namespace {

// poll() timeout for an absolute deadline, clamped to >= 1ms so a nearly
// expired deadline still makes one attempt instead of busy-spinning.
int PollTimeoutMs(Clock& clock, TimeNs deadline) {
  const TimeNs remaining = deadline - clock.Now();
  if (remaining <= 0) return 0;
  return static_cast<int>(std::max<TimeNs>(remaining / kNsPerMs, 1));
}

// The error a batch ack reports for each sample its bitmap marks failed.
Error RejectionError(const PublishBatchAckMsg& ack) {
  return Error(ack.first_error_code, ack.first_error.empty()
                                         ? "sample rejected by daemon"
                                         : ack.first_error);
}

// The payload of a request or reply that carries none.
struct NoPayload {
  void Encode(Payload&) const {}
  static bool Decode(const Payload& in, NoPayload&) { return in.empty(); }
};

}  // namespace

ApolloClient::ApolloClient(ClientConfig config)
    : config_(std::move(config)),
      clock_(RealClock::Instance()),
      rtt_(obs::MetricsRegistry::Global().GetHistogram(
          "apollo_net_request_rtt_ns",
          "Client request round-trip time (ns)")),
      batch_size_(obs::MetricsRegistry::Global().GetHistogram(
          "apollo_net_batch_size", "Samples per flushed publish batch")),
      flush_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "apollo_net_flush_latency_ns",
          "PublishAsync flush latency, send to cumulative ack (ns)")) {}

ApolloClient::~ApolloClient() {
  if (connected() && !queue_.empty()) (void)Flush();
  Close();
}

Status ApolloClient::Connect() {
  if (connected()) return Status::Ok();
  const RetryPolicy& policy = config_.connect_retry;
  const TimeNs start = clock_.Now();
  Status last(ErrorCode::kUnavailable, "connect not attempted");
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    last = ConnectOnce();
    if (last.ok()) {
      // Reconnect audit: a fresh connection knows nothing about this
      // client's push subscriptions or continuous queries — replay them
      // before the caller's next request, or pushes silently stop.
      if (!reestablishing_) {
        reestablishing_ = true;
        ReestablishSessions();
        reestablishing_ = false;
      }
      return last;
    }
    if (!RetryableError(last.code())) return last;
    if (attempt == policy.max_attempts) break;
    const TimeNs backoff = JitteredBackoffForAttempt(policy, attempt);
    if (policy.deadline > 0 &&
        clock_.Now() + backoff - start >= policy.deadline) {
      break;
    }
    clock_.SleepFor(backoff);
  }
  return last;
}

Status ApolloClient::ConnectOnce() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("socket: ") + std::strerror(errno));
  }
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "fcntl O_NONBLOCK failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(ErrorCode::kInvalidArgument,
                  "bad host address: " + config_.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(ErrorCode::kUnavailable, "connect: " + err);
  }
  // Wait for the connect to resolve, then check SO_ERROR.
  const TimeNs deadline = clock_.Now() + config_.connect_timeout;
  pollfd pfd{fd, POLLOUT, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(clock_, deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      ::close(fd);
      return Status(ErrorCode::kUnavailable, "connect timed out");
    }
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  std::string("connect: ") +
                      std::strerror(so_error != 0 ? so_error : errno));
  }

  fd_ = fd;
  parser_ = FrameParser();
  pending_.clear();
  GlobalTelemetry().net_connections_opened.Inc();

  HelloMsg hello;
  hello.client_name = config_.client_name;
  hello.tenant = config_.tenant;
  auto ack = Call<HelloAckMsg>(MsgType::kHello, hello, MsgType::kHelloAck);
  if (!ack.ok()) return FailClose(ack.error().code(), ack.error().message());
  if (ack->protocol_version != kProtocolVersion) {
    return FailClose(ErrorCode::kFailedPrecondition,
                     "server speaks protocol version " +
                         std::to_string(ack->protocol_version));
  }
  server_name_ = ack->server_name;
  return Status::Ok();
}

void ApolloClient::Close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  GlobalTelemetry().net_connections_closed.Inc();
  // The reconnect fix: samples still queued are definitively unacked on
  // this connection — surface every one instead of dropping silently.
  if (!queue_.empty()) {
    std::vector<QueuedSample> orphans;
    orphans.swap(queue_);
    SurfaceErrors(orphans, Error(ErrorCode::kUnavailable,
                                 "connection closed with samples queued"));
  }
}

Status ApolloClient::FailClose(ErrorCode code, const std::string& message) {
  Close();
  return Status(code, message);
}

Status ApolloClient::SendRequest(MsgType type, std::uint32_t request_id,
                                 const Payload& payload, std::uint16_t flags) {
  TRACE_SPAN("net.send", MsgTypeName(type));
  auto& telemetry = GlobalTelemetry();
  if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
    if (auto action =
            injector->Evaluate(FaultSite::kNetSend, MsgTypeName(type))) {
      if (action->fails()) {
        telemetry.net_send_failures.Inc();
        return Status(ErrorCode::kUnavailable, "injected send failure");
      }
      clock_.Charge(action->delay_ns);
    }
  }
  std::vector<std::uint8_t> bytes;
  EncodeFrame(bytes, type, request_id, payload, flags);
  const TimeNs deadline = clock_.Now() + config_.request_timeout;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a daemon-side drop between poll and write must
    // surface as EPIPE (-> FailClose + reconnect), not kill the process.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, PollTimeoutMs(clock_, deadline));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) {
        telemetry.net_send_failures.Inc();
        return FailClose(ErrorCode::kUnavailable, "send timed out");
      }
      continue;
    }
    telemetry.net_send_failures.Inc();
    return FailClose(ErrorCode::kIoError,
                     std::string("write: ") + std::strerror(errno));
  }
  telemetry.net_bytes_sent.Inc(bytes.size());
  telemetry.net_messages_sent.Inc();
  return Status::Ok();
}

Status ApolloClient::ReadSome(TimeNs deadline) {
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(clock_, deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) return Status(ErrorCode::kUnavailable, "request timed out");
    if (rc < 0) {
      return FailClose(ErrorCode::kIoError,
                       std::string("poll: ") + std::strerror(errno));
    }
    break;
  }
  auto& telemetry = GlobalTelemetry();
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return FailClose(ErrorCode::kIoError,
                       std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return FailClose(ErrorCode::kUnavailable, "connection closed by peer");
    }
    telemetry.net_bytes_received.Inc(static_cast<std::uint64_t>(n));
    if (!parser_.Feed(buf, static_cast<std::size_t>(n))) {
      telemetry.net_protocol_errors.Inc();
      return FailClose(ErrorCode::kIoError,
                       "protocol error: " + parser_.error());
    }
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  Frame frame;
  while (parser_.Next(frame)) {
    TRACE_SPAN("net.recv", MsgTypeName(frame.type));
    const char* label = MsgTypeName(frame.type);
    if (injector != nullptr) {
      if (auto action = injector->Evaluate(FaultSite::kConnDrop, label)) {
        if (action->fails()) {
          telemetry.net_conn_drops.Inc();
          return FailClose(ErrorCode::kUnavailable,
                           "injected connection drop");
        }
        clock_.Charge(action->delay_ns);
      }
      if (auto action = injector->Evaluate(FaultSite::kNetRecv, label)) {
        if (action->fails()) {
          telemetry.net_recv_drops.Inc();
          continue;  // frame lost in flight
        }
        clock_.Charge(action->delay_ns);
      }
    }
    telemetry.net_messages_received.Inc();
    if (frame.type == MsgType::kDeliver && frame.request_id == 0) {
      DeliverMsg deliver;
      if (DeliverMsg::Decode(frame.payload, deliver)) {
        // Advance the session cursor past what we buffered, so a
        // post-reconnect re-subscribe resumes exactly there.
        if (!deliver.entries.empty()) {
          for (SubSession& session : sub_sessions_) {
            if (session.sub_id == deliver.subscription_id) {
              session.cursor = deliver.entries.back().id + 1;
              break;
            }
          }
        }
        deliveries_.push_back(std::move(deliver));
      }
      continue;
    }
    if (frame.type == MsgType::kCQUpdate && frame.request_id == 0) {
      CQUpdateMsg update;
      if (CQUpdateMsg::Decode(frame.payload, update)) {
        for (CQSession& session : cq_sessions_) {
          if (session.cq_id == update.cq_id) {
            session.epoch = update.epoch;
            session.seq = update.seq;
            break;
          }
        }
        cq_updates_.push_back(std::move(update));
      }
      continue;
    }
    if (frame.type == MsgType::kClusterMap && frame.request_id == 0) {
      ClusterMapMsg push;
      if (ClusterMapMsg::Decode(frame.payload, push) &&
          (!pushed_map_.has_value() ||
           push.map.version >= pushed_map_->version)) {
        pushed_map_ = std::move(push.map);
      }
      continue;
    }
    pending_.push_back(std::move(frame));
  }
  return Status::Ok();
}

Expected<Frame> ApolloClient::WaitFrame(std::uint32_t request_id,
                                        TimeNs deadline) {
  while (true) {
    while (!pending_.empty()) {
      Frame frame = std::move(pending_.front());
      pending_.pop_front();
      if (request_id != 0 && frame.request_id == request_id) return frame;
      // Stale response to a request that already timed out: drop it.
    }
    if (request_id == 0 && (!deliveries_.empty() || !cq_updates_.empty())) {
      return Frame{};  // sentinel: caller only wanted pushes
    }
    if (!connected()) {
      return Error(ErrorCode::kUnavailable, "not connected");
    }
    if (clock_.Now() >= deadline) {
      return Error(ErrorCode::kUnavailable, "request timed out");
    }
    Status status = ReadSome(deadline);
    if (!status.ok()) return Error(status.code(), status.message());
  }
}

Expected<Frame> ApolloClient::Roundtrip(MsgType type, const Payload& payload,
                                        MsgType expect, std::uint16_t flags) {
  if (!connected() && type != MsgType::kHello) {
    Status status = Connect();
    if (!status.ok()) return Error(status.code(), status.message());
  }
  const std::uint32_t request_id = next_request_id_++;
  const TimeNs start = clock_.Now();
  Status sent = SendRequest(type, request_id, payload, flags);
  if (!sent.ok()) return Error(sent.code(), sent.message());
  auto reply = WaitFrame(request_id, start + config_.request_timeout);
  if (!reply.ok()) return reply;
  rtt_.Record(clock_.Now() - start);
  if (reply->type == MsgType::kError) {
    ErrorMsg err;
    if (!ErrorMsg::Decode(reply->payload, err)) {
      return Error(ErrorCode::kParseError, "bad error frame");
    }
    return err.ToError();
  }
  if (reply->type != expect) {
    return Error(ErrorCode::kInternal,
                 std::string("unexpected reply type: ") +
                     MsgTypeName(reply->type));
  }
  return reply;
}

template <typename Reply, typename Request>
Expected<Reply> ApolloClient::Call(MsgType type, const Request& request,
                                   MsgType expect, std::uint16_t flags) {
  Payload payload;
  request.Encode(payload);
  auto frame = Roundtrip(type, payload, expect, flags);
  if (!frame.ok()) return frame.error();
  Reply reply;
  if (!Reply::Decode(frame->payload, reply)) {
    return Error(ErrorCode::kParseError,
                 std::string("bad ") + MsgTypeName(expect));
  }
  return reply;
}

Status ApolloClient::Ping() {
  return Call<NoPayload>(MsgType::kPing, NoPayload{}, MsgType::kPong)
      .status();
}

Expected<std::uint64_t> ApolloClient::Publish(const std::string& topic,
                                              TimeNs timestamp,
                                              const Sample& sample) {
  PublishBatchMsg msg;
  PublishBatchMsg::Run& run = msg.runs.emplace_back();
  run.topic = topic;
  TelemetryStream::Entry& entry = run.entries.emplace_back();
  entry.timestamp = timestamp;
  entry.value = sample;
  auto ack = PublishBatch(msg);
  if (!ack.ok()) return ack.error();
  if (ack->error_count > 0) return RejectionError(*ack);
  return ack->last_entry_id;
}

void ApolloClient::SurfaceErrors(const std::vector<QueuedSample>& samples,
                                 const Error& error) {
  if (!publish_error_) return;
  for (const QueuedSample& q : samples) {
    publish_error_(q.topic, q.entry.timestamp, q.entry.value, error);
  }
}

Status ApolloClient::PublishAsync(const std::string& topic, TimeNs timestamp,
                                  const Sample& sample) {
  if (queue_.empty()) oldest_queued_ = clock_.Now();
  QueuedSample q;
  q.topic = topic;
  q.entry.timestamp = timestamp;
  q.entry.value = sample;
  queue_.push_back(std::move(q));
  if (queue_.size() >= config_.batch_max_samples ||
      clock_.Now() - oldest_queued_ >= config_.batch_max_delay) {
    return Flush();
  }
  return Status::Ok();
}

Status ApolloClient::Flush() {
  while (!queue_.empty()) {
    Status status = FlushChunk();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ApolloClient::FlushChunk() {
  if (queue_.empty()) return Status::Ok();
  const std::size_t n = std::min<std::size_t>(queue_.size(), kMaxBatchSamples);
  // Move the chunk out before the round trip: a failure path that lands in
  // Close() must only see (and surface) samples *not* already in flight.
  std::vector<QueuedSample> inflight(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + static_cast<std::ptrdiff_t>(n)));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));

  PublishBatchMsg msg;
  for (QueuedSample& q : inflight) {
    if (msg.runs.empty() || msg.runs.back().topic != q.topic) {
      msg.runs.emplace_back();
      msg.runs.back().topic = q.topic;
    }
    msg.runs.back().entries.push_back(q.entry);
  }
  batch_size_.Record(static_cast<std::int64_t>(n));
  const TimeNs start = clock_.Now();
  auto ack = PublishBatch(msg);
  if (!ack.ok()) {
    SurfaceErrors(inflight, ack.error());
    return ack.status();
  }
  flush_latency_.Record(clock_.Now() - start);
  if (ack->error_count > 0 && publish_error_) {
    const Error err = RejectionError(*ack);
    for (std::size_t i = 0; i < n; ++i) {
      if (ack->Failed(static_cast<std::uint32_t>(i))) {
        publish_error_(inflight[i].topic, inflight[i].entry.timestamp,
                       inflight[i].entry.value, err);
      }
    }
  }
  return Status::Ok();
}

Expected<PublishBatchAckMsg> ApolloClient::PublishBatch(
    const PublishBatchMsg& msg, std::uint16_t flags) {
  auto ack = Call<PublishBatchAckMsg>(MsgType::kPublishBatch, msg,
                                      MsgType::kPublishBatchAck, flags);
  // An ack must cover exactly the samples sent: the ones past a short
  // ack's count would be neither acked nor reported failed.
  const std::size_t sent = msg.SampleCount();
  if (ack.ok() && ack->count != sent) {
    return Error(ErrorCode::kParseError,
                 "batch ack covers " + std::to_string(ack->count) + " of " +
                     std::to_string(sent) + " samples");
  }
  return ack;
}

Expected<SubscribeAckMsg> ApolloClient::Subscribe(const std::string& topic,
                                                  std::uint64_t cursor) {
  SubscribeMsg msg;
  msg.topic = topic;
  msg.cursor = cursor;
  auto reply =
      Call<SubscribeAckMsg>(MsgType::kSubscribe, msg, MsgType::kSubscribeAck);
  if (!reply.ok()) return reply;
  const SubscribeAckMsg& ack = *reply;
  // Track the session for reconnect replay. A replayed subscribe (same
  // topic) refreshes its session in place instead of adding another.
  SubSession* session = nullptr;
  for (SubSession& s : sub_sessions_) {
    if (s.topic == topic) {
      session = &s;
      break;
    }
  }
  if (session == nullptr) {
    sub_sessions_.emplace_back();
    session = &sub_sessions_.back();
    session->topic = topic;
  }
  session->sub_id = ack.subscription_id;
  session->cursor = ack.start_cursor;
  // Deliveries read together with the ack were buffered before the session
  // knew its id; without this a reconnect would replay them.
  for (const DeliverMsg& deliver : deliveries_) {
    if (deliver.subscription_id == ack.subscription_id &&
        !deliver.entries.empty()) {
      session->cursor =
          std::max(session->cursor, deliver.entries.back().id + 1);
    }
  }
  return reply;
}

Expected<CQRegisterAckMsg> ApolloClient::CQRegisterInternal(
    const std::string& name, const std::string& sql,
    std::uint64_t resume_epoch, std::uint64_t resume_seq) {
  CQRegisterMsg msg;
  msg.name = name;
  msg.sql = sql;
  msg.resume_epoch = resume_epoch;
  msg.resume_seq = resume_seq;
  auto reply = Call<CQRegisterAckMsg>(MsgType::kCQRegister, msg,
                                      MsgType::kCQRegisterAck);
  if (!reply.ok()) return reply;
  const CQRegisterAckMsg& ack = *reply;
  CQSession* session = nullptr;
  for (CQSession& s : cq_sessions_) {
    if (s.name == name) {
      session = &s;
      break;
    }
  }
  if (session == nullptr) {
    cq_sessions_.emplace_back();
    session = &cq_sessions_.back();
    session->name = name;
  }
  session->sql = sql;
  session->cq_id = ack.cq_id;
  session->epoch = ack.epoch;
  session->seq = ack.seq;
  // Same for updates of this epoch read together with the ack.
  for (const CQUpdateMsg& update : cq_updates_) {
    if (update.cq_id == ack.cq_id && update.epoch == ack.epoch) {
      session->seq = std::max(session->seq, update.seq);
    }
  }
  return reply;
}

Expected<CQRegisterAckMsg> ApolloClient::CQRegister(const std::string& name,
                                                    const std::string& sql) {
  std::uint64_t resume_epoch = 0;
  std::uint64_t resume_seq = 0;
  for (const CQSession& s : cq_sessions_) {
    if (s.name == name && s.sql == sql) {
      resume_epoch = s.epoch;
      resume_seq = s.seq;
      break;
    }
  }
  return CQRegisterInternal(name, sql, resume_epoch, resume_seq);
}

Status ApolloClient::CQCancel(std::uint64_t cq_id) {
  CQCancelMsg msg;
  msg.cq_id = cq_id;
  auto reply =
      Call<CQCancelAckMsg>(MsgType::kCQCancel, msg, MsgType::kCQCancelAck);
  if (!reply.ok()) return reply.status();
  for (auto it = cq_sessions_.begin(); it != cq_sessions_.end(); ++it) {
    if (it->cq_id == cq_id) {
      cq_sessions_.erase(it);
      break;
    }
  }
  return Status::Ok();
}

std::vector<CQUpdateMsg> ApolloClient::TakeCQUpdates() {
  std::vector<CQUpdateMsg> out;
  out.swap(cq_updates_);
  return out;
}

bool ApolloClient::WaitForCQUpdates(TimeNs timeout) {
  const TimeNs deadline = clock_.Now() + timeout;
  while (cq_updates_.empty()) {
    // ReadSome directly (not WaitFrame): its push sentinel would return
    // immediately while unrelated deliveries sit buffered, spinning here.
    if (!connected() || clock_.Now() >= deadline) return false;
    if (!ReadSome(deadline).ok()) return false;
  }
  return true;
}

void ApolloClient::ReestablishSessions() {
  // Replay push subscriptions from the cursor after the last buffered
  // delivery: nothing re-delivered, nothing skipped (entries evicted from
  // the stream window in between are gone either way).
  std::vector<SubSession> subs;
  subs.swap(sub_sessions_);
  for (SubSession& session : subs) {
    (void)Subscribe(session.topic, session.cursor);
  }
  // Replay CQ registrations with resume (epoch, seq): the daemon either
  // resumes delivery exactly past seq or bumps the epoch and restarts
  // from a fresh snapshot — the client detects which from the ack.
  std::vector<CQSession> cqs;
  cqs.swap(cq_sessions_);
  for (CQSession& session : cqs) {
    (void)CQRegisterInternal(session.name, session.sql, session.epoch,
                             session.seq);
  }
}

Expected<WindowMsg> ApolloClient::FetchWindow(const std::string& topic,
                                              std::uint64_t cursor,
                                              std::uint64_t max_entries) {
  FetchWindowMsg msg;
  msg.topic = topic;
  msg.cursor = cursor;
  msg.max_entries = max_entries;
  return Call<WindowMsg>(MsgType::kFetchWindow, msg, MsgType::kWindow);
}

Expected<ResultMsg> ApolloClient::Query(const std::string& sql, bool partial) {
  QueryMsg msg;
  msg.sql = sql;
  return Call<ResultMsg>(MsgType::kQuery, msg, MsgType::kResult,
                         partial ? kFlagPartial : 0);
}

Expected<std::vector<TopicInfo>> ApolloClient::ListTopics() {
  auto msg = Call<TopicListMsg>(MsgType::kListTopics, NoPayload{},
                                MsgType::kTopicList);
  if (!msg.ok()) return msg.error();
  return std::move(msg->topics);
}

Expected<std::string> ApolloClient::FetchMetricsText() {
  auto msg = Call<MetricsTextMsg>(MsgType::kMetrics, NoPayload{},
                                  MsgType::kMetricsText);
  if (!msg.ok()) return msg.error();
  return std::move(msg->text);
}

Expected<HeartbeatMsg> ApolloClient::Heartbeat(const HeartbeatMsg& msg) {
  return Call<HeartbeatMsg>(MsgType::kHeartbeat, msg, MsgType::kHeartbeatAck);
}

Expected<ReplicateAckMsg> ApolloClient::Replicate(const ReplicateMsg& msg) {
  return Call<ReplicateAckMsg>(MsgType::kReplicate, msg,
                               MsgType::kReplicateAck);
}

Expected<cluster::ClusterMap> ApolloClient::FetchClusterMap() {
  auto msg = Call<ClusterMapMsg>(MsgType::kGetClusterMap, NoPayload{},
                                 MsgType::kClusterMap);
  if (!msg.ok()) return msg.error();
  return std::move(msg->map);
}

std::optional<cluster::ClusterMap> ApolloClient::TakeClusterMapPush() {
  std::optional<cluster::ClusterMap> out;
  out.swap(pushed_map_);
  return out;
}

std::vector<DeliverMsg> ApolloClient::TakeDeliveries() {
  std::vector<DeliverMsg> out;
  out.swap(deliveries_);
  return out;
}

bool ApolloClient::WaitForDeliveries(TimeNs timeout) {
  const TimeNs deadline = clock_.Now() + timeout;
  while (deliveries_.empty()) {
    // ReadSome directly (not WaitFrame): its push sentinel also fires
    // for buffered CQ updates, which would spin this loop.
    if (!connected() || clock_.Now() >= deadline) return false;
    if (!ReadSome(deadline).ok()) return false;
  }
  return true;
}

}  // namespace apollo::net
