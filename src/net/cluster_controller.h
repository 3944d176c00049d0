// ClusterController: the daemon-side brain of the replicated cluster.
//
// One controller per clustered apollod. It owns the placement ring, the
// membership table, and one pair of ApolloClients per peer, and it splits
// the cluster work across exactly two threads:
//
//   probe thread (owned here)    loop thread (the daemon's EventLoop)
//   -------------------------    ----------------------------------
//   heartbeat round every        HandleHeartbeat / HandleReplicate
//   heartbeat_interval;          for inbound peer frames; RouteBatch
//   suspect/dead Tick();         for client publishes (replicate to
//   resync when (re)joining      secondaries or forward to the primary)
//
// A (re)joining node catches up as one more cursor reader: it pages
// through each placed topic with kFetchWindow from its own NextId, 2,048
// entries a page, until a page comes back short.
//
// Each thread talks to a peer through its OWN client (`probe` vs `route`),
// so the single-threaded ApolloClient contract holds without a lock that
// would let a slow probe stall the ingest path.
//
// Write path (RouteBatch, one publish run): the run's replicas are the
// ring walk over alive-or-suspect members. If self is the primary it
// evaluates kPublish faults per entry (the primary's dice decide for
// every replica — re-rolling on a secondary would fork the id
// sequences), sends the surviving entries to each secondary as a
// kReplicate carrying expected_base = the primary's pre-append NextId,
// and appends locally only after counting acks: the run is acked to the
// client iff 1 + applied secondaries >= write_quorum. A kAhead verdict
// means a secondary has entries the primary lacks — the primary is the
// stale one (it likely just rejoined), so it aborts the run, demotes
// itself to kJoining and resyncs instead of overwriting history. If self
// is NOT the primary the run is forwarded there with kFlagForwarded; a
// forwarded run is never forwarded again, so routing disagreement during
// a map change costs at most one extra hop before the sender retries
// with a fresher map.
//
// A quorum-failed run is NACKed without a local append, but a secondary
// may already have applied it; that secondary then answers kAhead until
// the primary resyncs the entries back. Unacked writes may thus become
// visible — the fabric is at-least-once, never lossy for ACKED samples,
// which is the invariant the chaos test checks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.h"
#include "cluster/placement.h"
#include "common/clock.h"
#include "common/expected.h"
#include "net/client.h"
#include "net/messages.h"
#include "pubsub/broker.h"

namespace apollo::net {

struct ClusterPeer {
  std::string name;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ClusterNodeConfig {
  bool enabled = false;
  // This node's name; must appear in `members`.
  std::string self;
  // Full configured cluster, including self.
  std::vector<ClusterPeer> members;
  std::uint32_t replication_factor = 2;
  // Replicas (counting the primary) that must hold a run before it is
  // acked. 1 = primary-only (async replication).
  std::uint32_t write_quorum = 2;
  TimeNs heartbeat_interval = Millis(100);
  // Silence thresholds; must exceed peer_timeout so one in-flight
  // replicate round-trip on the peer's loop thread cannot by itself make
  // the peer look suspect.
  TimeNs suspect_after = Millis(500);
  TimeNs dead_after = Millis(1200);
  // Per round-trip deadline for every peer client (probe and route).
  TimeNs peer_timeout = Millis(250);
};

class ClusterController {
 public:
  // Called (from the probe thread or the loop thread) whenever the
  // membership map's version changes; the daemon posts the broadcast to
  // its loop.
  using MapPushFn = std::function<void(const cluster::ClusterMap&)>;

  ClusterController(Broker& broker, ClusterNodeConfig config);
  ~ClusterController();

  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  // Starts the probe thread. The first resync (trivial on a cold
  // cluster) promotes self from kJoining to kAlive.
  Status Start(MapPushFn push);
  void Stop();

  cluster::ClusterMap Snapshot() const { return membership_.Snapshot(); }
  std::uint64_t generation() const { return generation_; }
  const ClusterNodeConfig& config() const { return config_; }

  // --- loop-thread entry points (called by the daemon's frame handlers)

  void HandleHeartbeat(const HeartbeatMsg& msg, HeartbeatMsg& ack);
  void HandleReplicate(const ReplicateMsg& msg, ReplicateAckMsg& ack);

  // Routes every run of `msg` (replicate-and-append when self is the
  // primary, forward otherwise) and fills `ack` with the per-sample
  // outcome. `forwarded` runs are served as primary or failed — never
  // re-forwarded.
  void RouteBatch(const PublishBatchMsg& msg, bool forwarded,
                  PublishBatchAckMsg& ack);

 private:
  struct Peer {
    ClusterPeer info;
    std::unique_ptr<ApolloClient> probe;  // probe-thread only
    std::unique_ptr<ApolloClient> route;  // daemon route-thread only
  };

  void ProbeLoop();
  // One heartbeat round over every peer; feeds the membership table.
  void ProbeRound(TimeNs now);
  // Catch-up: reads every topic placed on self from peer replicas.
  // Returns true when every placed topic reached its source's NextId
  // (self may then serve as kAlive).
  bool DoResync();
  // Pages through `topic` on `source` from the local NextId until a page
  // comes back short, applying each page with its ids. Returns false on
  // any transport/apply error.
  bool ResyncTopicFrom(Peer& source, const std::string& topic);
  // Pushes the current map through `push_` when the version moved.
  void MaybePushMap();
  // Mirrors membership counters into GlobalTelemetry (delta-based).
  void SyncCounters();
  // Replica members for `topic` under `map` (alive-walk). Order is ring
  // order: [0] is the primary.
  std::vector<const cluster::Member*> Replicas(const cluster::ClusterMap& map,
                                               const std::string& topic) const;
  // Marks every not-yet-marked sample of the run failed.
  static void FailRun(PublishBatchAckMsg& ack, std::size_t base,
                      std::size_t n, ErrorCode code, const std::string& error);

  Broker& broker_;
  ClusterNodeConfig config_;
  std::uint64_t generation_ = 0;  // wall-clock process-start stamp
  cluster::PlacementRing ring_;
  cluster::MembershipTable membership_;
  std::map<std::string, Peer> peers_;  // by name, excluding self

  MapPushFn push_;
  std::mutex push_mu_;
  std::uint64_t last_pushed_version_ = 0;

  std::thread probe_thread_;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool stop_ = false;
  bool running_ = false;
  // Set on kBehind/kAhead verdicts and at start; cleared by a complete
  // resync.
  std::atomic<bool> resync_needed_{true};

  // Last membership counter values mirrored into telemetry.
  std::uint64_t seen_suspects_ = 0;
  std::uint64_t seen_deaths_ = 0;
  std::uint64_t seen_recoveries_ = 0;
};

// Builds a MembershipTable member list from the configured peers.
std::vector<cluster::Member> MembersFromPeers(
    const std::vector<ClusterPeer>& peers);

}  // namespace apollo::net
