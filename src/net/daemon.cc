#include "net/daemon.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "aqe/parser.h"
#include "aqe/query_builder.h"
#include "aqe/remote.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo::net {

namespace {

// Subscription pump period: how often new stream entries are pushed.
constexpr TimeNs kDeliveryInterval = 2 * kNsPerMs;
// Max entries per kDeliver frame.
constexpr std::size_t kDeliveryBatch = 512;
// A shed one-shot query whose cached answer is older than this is refused
// (kResourceExhausted) instead of served degraded.
constexpr TimeNs kShedAnswerMaxAge = 60 * kNsPerSec;

// The largest payload one frame can carry to a peer: it fits the outbound
// bound on an empty buffer, and the peer's parser takes nothing longer
// than kMaxFrameLen.
std::size_t MaxPayload(const ServerConfig& server) {
  const std::size_t bound = server.max_outbound_bytes;
  return std::min<std::size_t>(bound > kHeaderSize ? bound - kHeaderSize : 0,
                               kMaxFrameLen);
}

// Requests that only a clustered daemon serves.
bool ClusterOnly(MsgType type) {
  return type == MsgType::kHeartbeat || type == MsgType::kGetClusterMap ||
         type == MsgType::kReplicate;
}

}  // namespace

ApolloDaemon::ApolloDaemon(Broker& broker, aqe::Executor& executor,
                           DaemonConfig config)
    : broker_(broker),
      executor_(executor),
      config_(std::move(config)),
      max_payload_(MaxPayload(config_.server)),
      window_cap_(WindowEntriesFit(max_payload_)),
      loop_(RealClock::Instance()),
      server_(loop_, config_.server, *this),
      cq_engine_(broker, config_.cq),
      admission_(config_.admission) {
  if (config_.cluster.enabled) {
    controller_ =
        std::make_unique<ClusterController>(broker_, config_.cluster);
  }
  // Publish-path hook: every append (wire batch, in-process vertex)
  // flips the CQ engine's per-topic dirty bit.
  broker_.AttachPublishObserver(&cq_engine_);
}

ApolloDaemon::~ApolloDaemon() {
  Stop();
  broker_.AttachPublishObserver(nullptr);
}

Status ApolloDaemon::Start() {
  if (running_) {
    return Status(ErrorCode::kFailedPrecondition, "daemon already running");
  }
  loop_.ClearStop();
  Status status = server_.Start();
  if (!status.ok()) return status;
  pump_timer_ = loop_.AddTimer(kDeliveryInterval, [this](TimeNs) {
    PumpSubscriptions();
    return kDeliveryInterval;
  });
  running_ = true;
  thread_ = std::thread([this] {
    loop_.Run(std::numeric_limits<TimeNs>::max(), /*stop_when_idle=*/false);
  });
  if (controller_ != nullptr) {
    {
      std::lock_guard<std::mutex> g(route_mu_);
      route_stop_ = false;
    }
    route_thread_ = std::thread([this] { RouteLoop(); });
    status = controller_->Start([this](const cluster::ClusterMap& map) {
      // Probe or loop thread -> loop thread.
      loop_.Post([this, map] { BroadcastMap(map); });
    });
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  return Status::Ok();
}

void ApolloDaemon::PostRoute(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> g(route_mu_);
    route_q_.push_back(std::move(task));
  }
  route_cv_.notify_one();
}

void ApolloDaemon::RouteLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(route_mu_);
      route_cv_.wait(lock, [this] { return route_stop_ || !route_q_.empty(); });
      if (route_stop_ && route_q_.empty()) return;
      task = std::move(route_q_.front());
      route_q_.pop_front();
    }
    task();
  }
}

void ApolloDaemon::Stop() {
  if (!running_) return;
  running_ = false;
  // Route worker first: its queued jobs call into the controller and post
  // replies to the loop, so both must still be alive while it drains.
  if (route_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> g(route_mu_);
      route_stop_ = true;
    }
    route_cv_.notify_all();
    route_thread_.join();
  }
  // Controller next: its probe thread is the only other writer of
  // cluster state.
  if (controller_ != nullptr) controller_->Stop();
  loop_.Stop();
  if (thread_.joinable()) thread_.join();
  loop_.CancelTimer(pump_timer_);
  pump_timer_ = 0;
  server_.Stop();  // loop no longer running: safe off-thread
  subs_.clear();
  conns_.clear();
  conn_tenants_.clear();
  last_good_.clear();
}

void ApolloDaemon::OnFrame(Connection& conn, const Frame& frame) {
  conns_.insert(conn.id());
  if (controller_ == nullptr && ClusterOnly(frame.type)) {
    SendError(conn, frame.request_id,
              {ErrorCode::kFailedPrecondition, "daemon is not clustered"});
    return;
  }
  switch (frame.type) {
    case MsgType::kHello:
      HandleHello(conn, frame);
      return;
    case MsgType::kPing:
      conn.SendFrame(MsgType::kPong, frame.request_id, {});
      return;
    case MsgType::kPublishBatch:
      HandlePublishBatch(conn, frame);
      return;
    case MsgType::kSubscribe:
      HandleSubscribe(conn, frame);
      return;
    case MsgType::kFetchWindow:
      HandleFetchWindow(conn, frame);
      return;
    case MsgType::kQuery:
      HandleQuery(conn, frame);
      return;
    case MsgType::kCQRegister:
      HandleCQRegister(conn, frame);
      return;
    case MsgType::kCQCancel:
      HandleCQCancel(conn, frame);
      return;
    case MsgType::kListTopics:
      HandleListTopics(conn, frame);
      return;
    case MsgType::kMetrics:
      HandleMetrics(conn, frame);
      return;
    case MsgType::kHeartbeat:
      HandleHeartbeat(conn, frame);
      return;
    case MsgType::kGetClusterMap:
      HandleGetClusterMap(conn, frame);
      return;
    case MsgType::kReplicate:
      HandleReplicate(conn, frame);
      return;
    default:
      SendError(conn, frame.request_id,
                {ErrorCode::kInvalidArgument,
                 std::string("unexpected message type: ") +
                     MsgTypeName(frame.type)});
  }
}

void ApolloDaemon::OnClose(Connection& conn) {
  conns_.erase(conn.id());
  subs_.erase(conn.id());
  conn_tenants_.erase(conn.id());
  // CQ registrations survive the connection (detached) so the client can
  // reconnect and resume at its last (epoch, seq).
  cq_engine_.DetachConn(conn.id());
}

void ApolloDaemon::HandleHello(Connection& conn, const Frame& frame) {
  HelloMsg hello;
  if (!DecodeRequest(conn, frame, hello)) {
    conn.Close();
    return;
  }
  if (hello.protocol_version != kProtocolVersion) {
    SendError(conn, frame.request_id,
              {ErrorCode::kFailedPrecondition,
               "unsupported protocol version " +
                   std::to_string(hello.protocol_version)});
    conn.Close();
    return;
  }
  conn_tenants_[conn.id()] =
      hello.tenant.empty() ? std::string("default") : hello.tenant;
  HelloAckMsg ack;
  ack.server_name = config_.server.server_name;
  ack.topic_count = broker_.ListTopics().size();
  SendMsg(conn, MsgType::kHelloAck, frame.request_id, ack);
}

const std::string& ApolloDaemon::TenantOf(const Connection& conn) const {
  static const std::string kDefault = "default";
  auto it = conn_tenants_.find(conn.id());
  return it == conn_tenants_.end() ? kDefault : it->second;
}

void ApolloDaemon::RefreshIdleExempt(Connection& conn) {
  const auto subs = subs_.find(conn.id());
  const bool has_subs = subs != subs_.end() && !subs->second.empty();
  conn.set_idle_exempt(has_subs || cq_engine_.OwnedCount(conn.id()) > 0);
}

void ApolloDaemon::HandlePublishBatch(Connection& conn, const Frame& frame) {
  TRACE_SPAN("net.publish_batch");
  auto& telemetry = GlobalTelemetry();
  PublishBatchMsg msg;
  if (!DecodeRequest(conn, frame, msg)) {
    telemetry.net_batch_decode_errors.Inc();
    return;
  }
  // kBatchDecode: a firing fault rejects the whole (well-formed) batch as
  // if it had been corrupted in flight. Topic filter is the first run's
  // topic so chaos scripts can target one producer.
  if (FaultInjector* injector = broker_.fault_injector()) {
    if (auto action =
            injector->Evaluate(FaultSite::kBatchDecode, msg.runs[0].topic)) {
      if (action->fails()) {
        telemetry.net_batch_decode_errors.Inc();
        SendError(conn, frame.request_id,
                  {ErrorCode::kUnavailable, "batch decode fault injected"});
        return;
      }
      broker_.clock().Charge(action->delay_ns);
    }
  }
  const std::size_t total = msg.SampleCount();
  PublishBatchAckMsg ack;
  ack.Resize(static_cast<std::uint32_t>(total));
  if (controller_ != nullptr) {
    // Cluster mode: the replication router decides quorum and forwarding,
    // on the route worker (see PostRoute).
    const std::uint64_t conn_id = conn.id();
    const std::uint32_t request_id = frame.request_id;
    const bool forwarded = (frame.flags & kFlagForwarded) != 0;
    PostRoute([this, conn_id, request_id, forwarded, total,
               msg = std::move(msg)] {
      PublishBatchAckMsg route_ack;
      route_ack.Resize(static_cast<std::uint32_t>(total));
      controller_->RouteBatch(msg, forwarded, route_ack);
      auto& counters = GlobalTelemetry();
      counters.net_batch_publishes.Inc();
      counters.net_batch_samples.Inc(total);
      if (route_ack.error_count > 0) {
        counters.net_batch_sample_errors.Inc(route_ack.error_count);
      }
      loop_.Post([this, conn_id, request_id, route_ack] {
        Connection* reply_conn = server_.FindConnection(conn_id);
        if (reply_conn == nullptr) return;
        SendMsg(*reply_conn, MsgType::kPublishBatchAck, request_id,
                route_ack);
      });
    });
    return;
  }
  std::size_t base = 0;
  for (const PublishBatchMsg::Run& run : msg.runs) {
    const std::size_t n = run.entries.size();
    auto handle = broker_.Resolve(run.topic);
    if (!handle.ok()) {
      for (std::size_t i = 0; i < n; ++i) {
        ack.MarkFailed(static_cast<std::uint32_t>(base + i));
      }
      if (ack.first_error.empty()) {
        ack.first_error_code = handle.error().code();
        ack.first_error = handle.error().message();
      }
      base += n;
      continue;
    }
    auto result = broker_.PublishBatch(*handle, config_.node,
                                       run.entries.data(), n,
                                       &ack.error_bits, base);
    if (!result.ok()) {
      for (std::size_t i = 0; i < n; ++i) {
        ack.MarkFailed(static_cast<std::uint32_t>(base + i));
      }
      if (ack.first_error.empty()) {
        ack.first_error_code = result.error().code();
        ack.first_error = result.error().message();
      }
      base += n;
      continue;
    }
    // PublishBatch set per-entry bits directly; fold its count and first
    // failure into the ack.
    ack.error_count += static_cast<std::uint32_t>(n - result->accepted);
    if (result->accepted < n && ack.first_error.empty()) {
      ack.first_error_code = result->first_error_code;
      ack.first_error = result->first_error;
    }
    if (result->accepted > 0) ack.last_entry_id = result->last_entry_id;
    base += n;
  }
  telemetry.net_batch_publishes.Inc();
  telemetry.net_batch_samples.Inc(total);
  if (ack.error_count > 0) {
    telemetry.net_batch_sample_errors.Inc(ack.error_count);
  }
  SendMsg(conn, MsgType::kPublishBatchAck, frame.request_id, ack);
}

void ApolloDaemon::HandleSubscribe(Connection& conn, const Frame& frame) {
  SubscribeMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  auto stream = broker_.GetTopic(msg.topic);
  if (!stream.ok()) {
    SendError(conn, frame.request_id, stream.error());
    return;
  }
  Subscription sub;
  sub.id = next_sub_id_++;
  sub.topic = msg.topic;
  sub.cursor = msg.cursor == kCursorTail ? (*stream)->NextId() : msg.cursor;
  SubscribeAckMsg ack;
  ack.subscription_id = sub.id;
  ack.start_cursor = sub.cursor;
  subs_[conn.id()].push_back(std::move(sub));
  RefreshIdleExempt(conn);
  SendMsg(conn, MsgType::kSubscribeAck, frame.request_id, ack);
}

Expected<std::vector<TelemetryStream::Entry>> ApolloDaemon::ReadWindow(
    const std::string& topic, std::uint64_t& cursor,
    std::uint64_t max_entries) {
  return broker_.Fetch(topic, config_.node, cursor,
                       std::min<std::uint64_t>(max_entries, window_cap_));
}

void ApolloDaemon::HandleFetchWindow(Connection& conn, const Frame& frame) {
  FetchWindowMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  WindowMsg window;
  window.next_cursor = msg.cursor;
  auto entries = ReadWindow(msg.topic, window.next_cursor, msg.max_entries);
  if (!entries.ok()) {
    SendError(conn, frame.request_id, entries.error());
    return;
  }
  window.entries = std::move(*entries);
  SendMsg(conn, MsgType::kWindow, frame.request_id, window);
}

void ApolloDaemon::HandleQuery(Connection& conn, const Frame& frame) {
  TRACE_SPAN("net.query");
  QueryMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  ResultMsg reply;
  std::string text = msg.sql;
  if (frame.flags & kFlagPartial) {
    // Scatter-gather: keep only the UNION branches this daemon serves.
    std::string_view bare = text;
    bool analyze = false;
    const bool is_explain =
        aqe::Executor::StripExplainPrefix(text, bare, analyze);
    auto parsed = aqe::Parse(std::string(bare));
    if (!parsed.ok()) {
      SendError(conn, frame.request_id, parsed.error());
      return;
    }
    aqe::Query kept = aqe::FilterQuery(
        *parsed, [this](const std::string& t) { return broker_.HasTopic(t); },
        &reply.served_tables);
    if (kept.selects.empty()) {
      // Nothing served here: an empty partial answer, not an error.
      SendMsg(conn, MsgType::kResult, frame.request_id, reply);
      return;
    }
    if (kept.selects.size() != parsed->selects.size()) {
      // Re-render the surviving branches so EXPLAIN routing and the plan
      // cache see a plain query string.
      text = aqe::ToString(kept);
      if (is_explain) {
        text = (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") + text;
      }
    }
  }
  // Admission gate. EXPLAIN (plan inspection) is always free; a real
  // execution charges the connection's tenant and, over quota, degrades
  // to the cached last-known-good answer for this query text instead of
  // executing — the same graceful-degradation surface a failed node
  // presents, except here the node is protecting itself.
  std::string_view bare = text;
  bool analyze = false;
  const bool is_explain = aqe::Executor::StripExplainPrefix(text, bare, analyze);
  const std::string& tenant = TenantOf(conn);
  const TimeNs now = RealClock::Instance().Now();
  if (!is_explain && !admission_.Admit(tenant, now)) {
    auto cached = last_good_.find(text);
    if (cached == last_good_.end() ||
        now - cached->second.at > kShedAnswerMaxAge) {
      SendError(conn, frame.request_id,
                {ErrorCode::kResourceExhausted,
                 "tenant '" + tenant +
                     "' over query quota and no cached answer to degrade to"});
      return;
    }
    reply.result = cached->second.result;
    // Stamp every row degraded with at least the cached answer's age, so
    // the client can see exactly how stale its shed answer is.
    aqe::MarkDegraded(reply.result,
                      std::max<TimeNs>(0, now - cached->second.at));
    SendMsg(conn, MsgType::kResult, frame.request_id, reply);
    return;
  }
  auto result = executor_.Execute(text);
  if (!result.ok()) {
    SendError(conn, frame.request_id, result.error());
    return;
  }
  reply.result = std::move(*result);
  if (is_explain && analyze) {
    // EXPLAIN ANALYZE: append the tenant's admission accounting to the
    // plan rows, so overload behavior is inspectable per tenant.
    const cq::TenantAdmissionStats stats = admission_.Stats(tenant);
    aqe::ResultRow row;
    row.source = "admission: tenant=" + tenant +
                 " admitted=" + std::to_string(stats.admitted) +
                 " shed=" + std::to_string(stats.shed) + " rate=" +
                 (stats.rate_per_sec > 0.0
                      ? std::to_string(stats.rate_per_sec) + "/s"
                      : std::string("unlimited")) +
                 " active_cqs=" + std::to_string(cq_engine_.ActiveCount());
    reply.result.rows.push_back(std::move(row));
  }
  SendMsg(conn, MsgType::kResult, frame.request_id, reply);
  if (!is_explain) {
    // The reply is encoded, so the answer moves into the cache instead of
    // being copied there.
    if (last_good_.size() >= aqe::kLastGoodCacheEntries) last_good_.clear();
    CachedAnswer& cached = last_good_[text];
    cached.result = std::move(reply.result);
    cached.at = now;
  }
}

void ApolloDaemon::HandleCQRegister(Connection& conn, const Frame& frame) {
  CQRegisterMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  auto reg = cq_engine_.Register(conn.id(), TenantOf(conn), msg.name, msg.sql,
                                 msg.resume_epoch, msg.resume_seq,
                                 RealClock::Instance().Now());
  if (!reg.ok()) {
    SendError(conn, frame.request_id, reg.error());
    return;
  }
  RefreshIdleExempt(conn);
  CQRegisterAckMsg ack;
  ack.cq_id = reg->cq_id;
  ack.epoch = reg->epoch;
  ack.seq = reg->last_seq;
  SendMsg(conn, MsgType::kCQRegisterAck, frame.request_id, ack);
}

void ApolloDaemon::HandleCQCancel(Connection& conn, const Frame& frame) {
  CQCancelMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  Status status = cq_engine_.Cancel(msg.cq_id, conn.id());
  if (!status.ok()) {
    SendError(conn, frame.request_id, status);
    return;
  }
  RefreshIdleExempt(conn);
  CQCancelAckMsg ack;
  ack.cq_id = msg.cq_id;
  SendMsg(conn, MsgType::kCQCancelAck, frame.request_id, ack);
}

void ApolloDaemon::HandleListTopics(Connection& conn, const Frame& frame) {
  TopicListMsg msg;
  msg.topics = broker_.ListTopics();
  SendMsg(conn, MsgType::kTopicList, frame.request_id, msg);
}

void ApolloDaemon::HandleMetrics(Connection& conn, const Frame& frame) {
  MetricsTextMsg msg;
  msg.text = obs::MetricsRegistry::Global().RenderPrometheus();
  SendMsg(conn, MsgType::kMetricsText, frame.request_id, msg);
}

void ApolloDaemon::HandleHeartbeat(Connection& conn, const Frame& frame) {
  HeartbeatMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  HeartbeatMsg ack;
  controller_->HandleHeartbeat(msg, ack);
  SendMsg(conn, MsgType::kHeartbeatAck, frame.request_id, ack);
}

void ApolloDaemon::HandleGetClusterMap(Connection& conn, const Frame& frame) {
  ClusterMapMsg msg;
  msg.map = controller_->Snapshot();
  SendMsg(conn, MsgType::kClusterMap, frame.request_id, msg);
}

void ApolloDaemon::HandleReplicate(Connection& conn, const Frame& frame) {
  ReplicateMsg msg;
  if (!DecodeRequest(conn, frame, msg)) return;
  ReplicateAckMsg ack;
  controller_->HandleReplicate(msg, ack);
  SendMsg(conn, MsgType::kReplicateAck, frame.request_id, ack);
}

void ApolloDaemon::BroadcastMap(const cluster::ClusterMap& map) {
  ClusterMapMsg msg;
  msg.map = map;
  Payload payload;
  msg.Encode(payload);
  for (const std::uint64_t conn_id : conns_) {
    Connection* conn = server_.FindConnection(conn_id);
    if (conn == nullptr) continue;
    // Droppable: a backpressured client just fetches the map on demand.
    conn->SendFrame(MsgType::kClusterMap, /*request_id=*/0, payload,
                    /*flags=*/0, /*droppable=*/true);
  }
}

void ApolloDaemon::PumpSubscriptions() {
  for (auto& [conn_id, subs] : subs_) {
    Connection* conn = server_.FindConnection(conn_id);
    if (conn == nullptr) continue;
    // Cork while this connection's subscriptions are pumped: every kDeliver
    // frame queued below leaves in one writev at Uncork.
    conn->Cork();
    for (Subscription& sub : subs) {
      std::uint64_t cursor = sub.cursor;
      auto entries = ReadWindow(sub.topic, cursor, kDeliveryBatch);
      if (!entries.ok() || entries->empty()) continue;
      DeliverMsg deliver;
      deliver.subscription_id = sub.id;
      deliver.topic = sub.topic;
      deliver.entries = std::move(*entries);
      // A skipped (backpressured) delivery keeps the old cursor: the
      // entries stay in the window and are re-sent next pump.
      if (SendMsg(*conn, MsgType::kDeliver, /*request_id=*/0, deliver,
                  /*droppable=*/true)) {
        sub.cursor = cursor;
      }
    }
    conn->Uncork();
  }
  PumpCQ();
}

void ApolloDaemon::PumpCQ() {
  const TimeNs now = RealClock::Instance().Now();
  cq_engine_.Pump(
      now, &admission_,
      [this](const cq::CQInfo& info, const cq::CQUpdate& update) {
        Connection* conn = server_.FindConnection(info.conn_id);
        if (conn == nullptr) return false;
        CQUpdateMsg msg;
        msg.cq_id = info.cq_id;
        msg.epoch = update.epoch;
        msg.seq = update.seq;
        msg.result = update.result;
        // Droppable: a backpressured push is not delivered, so the
        // engine keeps delivered_seq and re-sends next pump.
        return SendMsg(*conn, MsgType::kCQUpdate, /*request_id=*/0, msg,
                       /*droppable=*/true);
      });
}

template <typename Msg>
bool ApolloDaemon::DecodeRequest(Connection& conn, const Frame& frame,
                                 Msg& msg) {
  if (Msg::Decode(frame.payload, msg)) return true;
  SendError(conn, frame.request_id,
            {ErrorCode::kParseError,
             std::string("bad ") + MsgTypeName(frame.type)});
  return false;
}

void ApolloDaemon::SendError(Connection& conn, std::uint32_t request_id,
                             const Status& error) {
  ErrorMsg msg;
  msg.code = error.code();
  msg.message = error.message();
  SendMsg(conn, MsgType::kError, request_id, msg);
}

template <typename Msg>
bool ApolloDaemon::SendMsg(Connection& conn, MsgType type,
                           std::uint32_t request_id, const Msg& msg,
                           bool droppable) {
  Payload payload;
  msg.Encode(payload);
  if (payload.size() > max_payload_ && !droppable && type != MsgType::kError) {
    // No frame this long can ever leave: fail the request, keep the
    // connection.
    SendError(conn, request_id,
              {ErrorCode::kOutOfRange,
               std::string(MsgTypeName(type)) + " reply of " +
                   std::to_string(payload.size()) + " bytes exceeds the " +
                   std::to_string(max_payload_) + "-byte frame bound"});
    return false;
  }
  return conn.SendFrame(type, request_id, payload, /*flags=*/0, droppable);
}

}  // namespace apollo::net
