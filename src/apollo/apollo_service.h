// ApolloService — the public facade wiring every subsystem together.
//
// Owns the pub-sub broker, the SCoRe graph, the event loop that drives
// vertices, the query executor, and (optionally) a trained Delphi model
// shared by all vertices. Two operating modes:
//
//  - kRealTime: the event loop runs on a background thread against the
//    monotonic clock. Used by latency/throughput experiments and by any
//    real deployment of the library.
//  - kSimulated: the service owns a SimClock and the caller advances
//    virtual time with RunFor()/RunUntil(); 30 minutes of monitoring
//    complete in milliseconds. Used by workload-replay experiments.
//
// Typical usage (see examples/quickstart.cpp):
//
//   ApolloService apollo(ApolloOptions{});
//   apollo.DeployFact(CapacityRemainingHook(device),
//                     FactDeployment{.controller = "complex_aimd"});
//   apollo.DeployInsight({.topic = "tier_capacity",
//                         .upstream = {...}}, SumInsight());
//   apollo.Start();
//   auto rs = apollo.Query("SELECT MAX(Timestamp), metric FROM ...");
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/interval_controller.h"
#include "aqe/executor.h"
#include "coldtier/cold_tier.h"
#include "common/clock.h"
#include "common/expected.h"
#include "delphi/delphi_model.h"
#include "common/fault.h"
#include "eventloop/event_loop.h"
#include "net/daemon.h"
#include "pubsub/broker.h"
#include "score/score_graph.h"
#include "score/supervisor.h"

namespace apollo {

struct ApolloOptions {
  enum class Mode { kRealTime, kSimulated };
  Mode mode = Mode::kRealTime;
  std::shared_ptr<const NetworkModel> network;  // null = free network
  NodeId client_node = kLocalNode;
  // When set, every deployed vertex — fact or insight — gets an Archiver
  // at <archive_dir>/<topic>.log (WAL segments <topic>.log.<seq>.wal);
  // entries evicted from the in-memory window persist there and remain
  // reachable by AQE timestamp-range queries — and replayable with
  // Recover() after a restart. Empty = no archives: evicted entries are
  // dropped.
  std::string archive_dir;
  // Durability knobs for archivers: segment size (rotation) and fsync
  // policy (see pubsub/archiver.h). The WAL keeps every segment until the
  // cold tier compacts it.
  WalConfig wal;
  // Columnar cold tier: when enabled (and archive_dir is set), every
  // archiver gets a ColdTier beside it that compacts sealed WAL segments
  // into compressed immutable blocks (coldtier/cold_tier.h) and then
  // deletes those segments. AQE range scans merge the blocks' rows via
  // zone-map-pruned reads. In real-time mode a timer on the event loop
  // compacts every coldtier_compact_interval; simulated/manual callers use
  // CompactNow().
  bool coldtier_enabled = false;
  TimeNs coldtier_compact_interval = Seconds(30);
  // Vertex supervision: crash/stall detection with bounded-backoff
  // restarts (a health-check timer on the service's event loop). Disable
  // for experiments that want crashed vertices to stay down.
  bool enable_supervisor = true;
  SupervisorOptions supervisor;
};

// Per-fact deployment knobs (wraps FactVertexConfig + controller choice).
struct FactDeployment {
  std::string controller = "fixed";  // fixed | simple_aimd | complex_aimd
  TimeNs fixed_interval = Seconds(1);
  AimdConfig aimd;
  std::string topic;  // default: hook metric name
  NodeId node = kLocalNode;
  std::size_t queue_capacity = 4096;
  bool publish_only_on_change = true;
  bool use_delphi = false;
  TimeNs prediction_granularity = Seconds(1);
  // Attach an archiver for evicted entries: "inherit" follows the service
  // option (a WAL under archive_dir when it is set), "none" drops evicted
  // entries. Only a topic's first deploy decides (see DeployFact).
  enum class Archive { kInherit, kNone };
  Archive archive = Archive::kInherit;
};

class ApolloService {
 public:
  explicit ApolloService(ApolloOptions options = {});
  ~ApolloService();

  ApolloService(const ApolloService&) = delete;
  ApolloService& operator=(const ApolloService&) = delete;

  // --- deployment ---
  // A topic's storage — its archiver and cold tier — is decided at its
  // first deploy and kept for the service's lifetime. Undeploy stops the
  // vertex but keeps the broker stream and that storage; a later deploy of
  // the topic reuses both, whatever its Archive setting, so one set of WAL
  // segments and cold blocks holds the topic's whole history.
  Expected<FactVertex*> DeployFact(MonitorHook hook,
                                   const FactDeployment& deployment = {});
  Expected<InsightVertex*> DeployInsight(InsightVertexConfig config,
                                         InsightFn fn,
                                         bool use_delphi = false);
  Status Undeploy(const std::string& topic);

  // Makes a trained Delphi model available to subsequent deployments with
  // use_delphi/prediction enabled.
  void SetDelphiModel(delphi::DelphiModel model);
  bool HasDelphiModel() const { return delphi_ != nullptr; }
  const delphi::DelphiModel* delphi_model() const { return delphi_.get(); }

  // --- lifecycle ---
  // Real-time mode: starts the event loop thread. Simulated mode: no-op.
  Status Start();
  void Stop();

  // Simulated mode: advances virtual time, firing every due timer.
  Status RunFor(TimeNs duration);
  Status RunUntil(TimeNs end_time);

  // --- durability & recovery ---
  // What a Recover() pass found and rebuilt across the service's archives.
  struct RecoveryReport {
    std::uint64_t topics_recovered = 0;   // streams seeded from an archive
    std::uint64_t topics_skipped = 0;     // stream already had live entries
    std::uint64_t segments_scanned = 0;
    std::uint64_t records_recovered = 0;  // valid records found on disk
    std::uint64_t records_replayed = 0;   // records seeded into windows
    std::uint64_t bytes_truncated = 0;    // torn/corrupt tail bytes cut
    std::uint64_t corrupt_segments = 0;
    std::uint64_t quarantined_segments = 0;
    // Cold tier (zero unless coldtier_enabled): blocks/rows reachable
    // after the manifest load + reconcile pass, and blocks quarantined.
    std::uint64_t cold_blocks = 0;
    std::uint64_t cold_rows = 0;
    std::uint64_t cold_quarantined_blocks = 0;
  };

  // Replays each deployed topic's on-disk archive tail into its (still
  // empty) stream so queries answer immediately after a restart: the ring
  // window, the rolling-aggregate index, and the last-known-good value are
  // rebuilt from the newest `queue_capacity` archived records, with
  // original timestamps (so staleness_ns is honest about data age) and
  // original ids: the restored window is the longest id-contiguous run at
  // the end of the archive, and the next publish takes the id after it.
  //
  // Call after deploying vertices and before Start()/first publish; topics
  // whose stream already has entries are skipped, not clobbered. `dir`
  // restricts the pass to archivers rooted there (default: the service's
  // archive_dir). Torn/corrupt segment tails were already truncated or
  // quarantined when each archiver opened; this aggregates those counts.
  Expected<RecoveryReport> Recover(const std::string& dir = "");

  // --- cold tier ---
  // Compacts every topic's sealed WAL segments into cold blocks now (the
  // same pass the real-time background timer runs). Aggregates across
  // topics; stops at the first topic that fails. No-op result when the
  // cold tier is disabled or nothing is sealed.
  Expected<coldtier::CompactResult> CompactNow();
  // The topic's cold tier, or null (not deployed / cold tier disabled).
  coldtier::ColdTier* cold_tier(const std::string& topic) const;

  // --- query surface ---
  // Also accepts EXPLAIN / EXPLAIN ANALYZE prefixes (profile rendered as a
  // one-column result set).
  Expected<aqe::ResultSet> Query(const std::string& query_text);
  Expected<double> LatestValue(const std::string& topic);

  // Query profiler (see aqe::Executor::Explain). `query_text` is the bare
  // SELECT; analyze=true executes it and fills per-vertex timings/rows.
  Expected<aqe::QueryProfile> Explain(const std::string& query_text,
                                      bool analyze = true);

  // Prometheus text exposition of the process-wide metrics registry —
  // every counter/gauge/histogram the fabric, vertices, archivers, and AQE
  // registered, including the TelemetryCounters facade.
  std::string DumpMetrics() const;

  // --- push-style subscriptions ---
  // Delivers every new entry of `topic` to `callback`, polled from the
  // event loop every `poll_interval` (the pull-based subscribe of §3.1;
  // callbacks run on the loop thread in real-time mode). The topic need
  // not exist yet — delivery starts once it does.
  using SubscriptionId = std::uint64_t;
  using SampleCallback = std::function<void(
      const std::string& topic, const StreamEntry<Sample>& entry)>;
  SubscriptionId Subscribe(const std::string& topic, TimeNs poll_interval,
                           SampleCallback callback);
  Status Unsubscribe(SubscriptionId id);
  std::size_t SubscriptionCount() const;

  // --- service self-telemetry ---
  // Aggregate of every deployed vertex's counters: the monitoring
  // service's own cost surface (what Figure 5 samples externally).
  struct ServiceStats {
    std::uint64_t fact_vertices = 0;
    std::uint64_t insight_vertices = 0;
    std::uint64_t hook_calls = 0;
    std::uint64_t published = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t predictions = 0;
    std::int64_t hook_time_ns = 0;
    std::int64_t publish_time_ns = 0;
    std::int64_t predict_time_ns = 0;
    // Fault-tolerance surface.
    std::uint64_t publish_failures = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;

    // Fraction of would-be publishes avoided by change suppression.
    double SuppressionRatio() const {
      const std::uint64_t total = published + suppressed;
      return total == 0 ? 0.0
                        : static_cast<double>(suppressed) /
                              static_cast<double>(total);
    }
  };
  ServiceStats Stats() const;

  // --- network fabric ---
  // Serves this service's broker topics, streams, and queries over the
  // wire protocol on its own real-clock loop thread (see net/daemon.h).
  // config.server.port 0 binds an ephemeral port; the bound port is
  // returned. One daemon per service.
  Expected<std::uint16_t> StartDaemon(net::DaemonConfig config = {});
  void StopDaemon();
  net::ApolloDaemon* daemon() { return daemon_.get(); }

  // --- fault tolerance ---
  // Routes injected faults into the broker and every service-owned
  // archiver and cold tier (current and future deployments). Pass nullptr
  // to detach.
  void AttachFaultInjector(FaultInjector* injector);
  // Null when enable_supervisor is false.
  VertexSupervisor* supervisor() { return supervisor_.get(); }

  // --- accessors ---
  Broker& broker() { return *broker_; }
  ScoreGraph& graph() { return *graph_; }
  EventLoop& loop() { return *loop_; }
  Clock& clock() { return *clock_; }
  SimClock* sim_clock() { return sim_clock_.get(); }
  const ApolloOptions& options() const { return options_; }

 private:
  ApolloOptions options_;
  std::unique_ptr<SimClock> sim_clock_;  // only in simulated mode
  Clock* clock_ = nullptr;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<ScoreGraph> graph_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<aqe::Executor> executor_;
  // The deploy path both vertex kinds share: checks the Delphi request,
  // rejects a topic the graph already holds before it opens anything, and
  // returns the topic's archiver — opening its storage on the first
  // deploy, as `archive` asks.
  struct VertexAttachments {
    const delphi::DelphiModel* delphi = nullptr;
    Archiver<Sample>* archiver = nullptr;
  };
  Expected<VertexAttachments> PrepareDeploy(const std::string& topic,
                                            bool use_delphi,
                                            FactDeployment::Archive archive);

  std::unique_ptr<delphi::DelphiModel> delphi_;
  // Where each deployed topic's history lives, made at its first deploy
  // and never erased: the archiver (null when that deploy archived
  // nothing) and, with coldtier_enabled, the cold tier beside it.
  // storage_mu_ guards the map (deploys vs the loop-thread compaction
  // timer), not the archivers and tiers (both are internally synchronized).
  struct TopicStorage {
    std::unique_ptr<Archiver<Sample>> archiver;
    std::unique_ptr<coldtier::ColdTier> cold;
  };
  mutable std::mutex storage_mu_;
  std::map<std::string, TopicStorage> storage_;
  TimerId compact_timer_ = 0;
  bool compact_timer_armed_ = false;
  // Declared after loop_/graph_ so it is destroyed (timer cancelled)
  // first.
  std::unique_ptr<VertexSupervisor> supervisor_;
  std::unique_ptr<net::ApolloDaemon> daemon_;
  FaultInjector* fault_ = nullptr;

  std::thread loop_thread_;
  bool running_ = false;

  struct SubscriptionState {
    TimerId timer;
  };
  mutable std::mutex subs_mu_;
  std::map<SubscriptionId, SubscriptionState> subscriptions_;
  SubscriptionId next_subscription_ = 1;
};

}  // namespace apollo
