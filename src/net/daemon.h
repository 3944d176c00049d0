// ApolloDaemon: serves one node's broker topics and streams over the wire
// protocol — the process role the paper calls the per-node observer.
//
// The daemon owns a real-clock EventLoop on a dedicated thread; the Server
// and every request handler run there. Requests map onto the local fabric:
//   kPublishBatch -> Broker::PublishBatch per topic run (stream lock taken
//                    once per run); the cumulative ack carries a per-sample
//                    error bitmap so partial injected loss is observable.
//                    The only ingest message: a single publish arrives as
//                    a batch of one
//   kFetchWindow  -> Broker::Fetch (cursor window reads), a page at most
//                    as long as one reply frame carries under
//                    max_outbound_bytes; the caller pages on next_cursor
//   kSubscribe    -> pushed kDeliver frames from a periodic pump timer;
//                    backpressured deliveries do not advance the cursor,
//                    so a slow subscriber loses nothing while the entries
//                    stay in the stream window
//   kQuery        -> aqe::Executor. EXPLAIN [ANALYZE] works unchanged. A
//                    kFlagPartial query executes only the UNION branches
//                    whose topics this daemon serves and reports them in
//                    ResultMsg::served_tables (scatter-gather).
//   kListTopics   -> Broker::ListTopics
//   kMetrics      -> MetricsRegistry::Global().RenderPrometheus() scrape
//
// A reply too long for any frame to carry (over max_outbound_bytes or
// kMaxFrameLen) is answered with kError{kOutOfRange} on the same
// connection. kHeartbeat, kGetClusterMap and kReplicate are refused with
// kFailedPrecondition unless cluster mode is on.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/expected.h"
#include "cq/admission.h"
#include "cq/cq_engine.h"
#include "eventloop/event_loop.h"
#include "net/cluster_controller.h"
#include "net/messages.h"
#include "net/transport.h"
#include "pubsub/broker.h"

namespace apollo::net {

struct DaemonConfig {
  ServerConfig server;
  // Node identity used for broker latency charging.
  NodeId node = kLocalNode;
  // Cluster membership/replication; disabled (standalone daemon) by
  // default. When enabled, publishes are routed through the
  // ClusterController (replicated to write_quorum nodes before acking)
  // and membership changes are pushed to every connected client as
  // kClusterMap frames.
  ClusterNodeConfig cluster;
  // Continuous-query engine (resume ring depth, registration cap,
  // per-evaluation admission cost).
  cq::CQOptions cq;
  // Per-tenant admission quotas. The default quota is unlimited, so a
  // daemon with no configured quotas admits everything; setting
  // rate_per_sec on a tenant (or the default) turns on shedding for
  // one-shot queries and CQ evaluation.
  cq::AdmissionOptions admission;
};

class ApolloDaemon final : public FrameHandler {
 public:
  // `broker` and `executor` are shared with the in-process fabric (an
  // ApolloService typically owns them) and must outlive the daemon.
  ApolloDaemon(Broker& broker, aqe::Executor& executor,
               DaemonConfig config = {});
  ~ApolloDaemon() override;

  // Binds the server and starts the loop thread. port() is valid after.
  Status Start();
  void Stop();

  std::uint16_t port() const { return server_.port(); }
  bool running() const { return running_; }
  Server& server() { return server_; }
  EventLoop& loop() { return loop_; }
  // Null when cluster mode is disabled.
  ClusterController* cluster() { return controller_.get(); }

 private:
  struct Subscription {
    std::uint64_t id = 0;
    std::string topic;
    std::uint64_t cursor = 0;
  };

  void OnFrame(Connection& conn, const Frame& frame) override;
  void OnClose(Connection& conn) override;

  void HandleHello(Connection& conn, const Frame& frame);
  void HandlePublishBatch(Connection& conn, const Frame& frame);
  void HandleSubscribe(Connection& conn, const Frame& frame);
  void HandleFetchWindow(Connection& conn, const Frame& frame);
  void HandleQuery(Connection& conn, const Frame& frame);
  void HandleCQRegister(Connection& conn, const Frame& frame);
  void HandleCQCancel(Connection& conn, const Frame& frame);
  void HandleListTopics(Connection& conn, const Frame& frame);
  void HandleMetrics(Connection& conn, const Frame& frame);
  void HandleHeartbeat(Connection& conn, const Frame& frame);
  void HandleGetClusterMap(Connection& conn, const Frame& frame);
  void HandleReplicate(Connection& conn, const Frame& frame);

  // Loop thread: sends the map to every tracked connection as a
  // droppable request_id-0 kClusterMap frame.
  void BroadcastMap(const cluster::ClusterMap& map);

  // Cluster publishes run on a dedicated route thread, never on the loop:
  // RouteBatch blocks on peer round-trips (forward to the primary,
  // replicate to secondaries), and a loop thread blocked mid-forward
  // cannot answer the kReplicate the primary sends back — two daemons
  // routing to each other would deadlock until their timeouts. The worker
  // computes the ack off-loop and posts the reply back (by connection id;
  // a connection gone by then just drops the reply, like any disconnect
  // between request and response). One worker keeps write routing
  // serialized exactly as the loop did.
  void PostRoute(std::function<void()> task);
  void RouteLoop();

  void PumpSubscriptions();
  void PumpCQ();
  // The one window read, for kFetchWindow and the subscription pump: up
  // to `max_entries` entries from `cursor` on (advanced past the last
  // one), and never more than window_cap_.
  Expected<std::vector<TelemetryStream::Entry>> ReadWindow(
      const std::string& topic, std::uint64_t& cursor,
      std::uint64_t max_entries);
  // Tenant bound to a connection at hello time ("default" before/without
  // one).
  const std::string& TenantOf(const Connection& conn) const;
  // Recomputes the idle-reaper exemption: a connection stays exempt
  // while it holds any push subscription or continuous query.
  void RefreshIdleExempt(Connection& conn);
  // Decodes the request in `frame` into `msg`, or refuses it with
  // kParseError and returns false.
  template <typename Msg>
  bool DecodeRequest(Connection& conn, const Frame& frame, Msg& msg);
  void SendError(Connection& conn, std::uint32_t request_id,
                 const Status& error);
  template <typename Msg>
  bool SendMsg(Connection& conn, MsgType type, std::uint32_t request_id,
               const Msg& msg, bool droppable = false);

  Broker& broker_;
  aqe::Executor& executor_;
  DaemonConfig config_;
  // The longest payload one frame carries under config_.server, and the
  // entries a window page holds in it.
  const std::size_t max_payload_;
  const std::size_t window_cap_;
  EventLoop loop_;
  Server server_;
  std::thread thread_;
  bool running_ = false;

  std::unique_ptr<ClusterController> controller_;  // cluster mode only

  // Route worker (cluster mode only).
  std::thread route_thread_;
  std::mutex route_mu_;
  std::condition_variable route_cv_;
  std::deque<std::function<void()>> route_q_;
  bool route_stop_ = false;

  // Continuous queries + admission. The engine is attached to the broker
  // as its publish observer for the daemon's lifetime, so in-process
  // publishes (ApolloService vertices) dirty CQs exactly like wire
  // publishes.
  cq::CQEngine cq_engine_;
  cq::AdmissionController admission_;

  // Loop-thread state.
  std::uint64_t next_sub_id_ = 1;
  std::map<std::uint64_t, std::vector<Subscription>> subs_;  // by conn id
  std::map<std::uint64_t, std::string> conn_tenants_;        // by conn id
  // Last-known-good answers for shed one-shot queries, keyed by query
  // text. Bounded: cleared when it holds aqe::kLastGoodCacheEntries.
  struct CachedAnswer {
    aqe::ResultSet result;
    TimeNs at = 0;
  };
  std::map<std::string, CachedAnswer> last_good_;
  // Connections seen since start (inserted on first frame, erased on
  // close): the Server exposes no iteration, and map pushes must reach
  // every client, not just subscribers.
  std::set<std::uint64_t> conns_;
  TimerId pump_timer_ = 0;
};

}  // namespace apollo::net
