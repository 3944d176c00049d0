#include "net/cluster_controller.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo::net {

namespace {

// Entries per catch-up page.
constexpr std::uint64_t kCatchUpPage = 2048;

// Generations must order a node's incarnations across restarts, so they
// come from the wall clock, not the process-relative monotonic clock.
std::uint64_t WallGeneration() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> PeerNames(const std::vector<ClusterPeer>& peers) {
  std::vector<std::string> names;
  names.reserve(peers.size());
  for (const ClusterPeer& p : peers) names.push_back(p.name);
  return names;
}

cluster::MemberState StateFromWire(std::uint8_t state) {
  if (state > static_cast<std::uint8_t>(cluster::MemberState::kDead)) {
    return cluster::MemberState::kAlive;
  }
  return static_cast<cluster::MemberState>(state);
}

}  // namespace

std::vector<cluster::Member> MembersFromPeers(
    const std::vector<ClusterPeer>& peers) {
  std::vector<cluster::Member> members;
  members.reserve(peers.size());
  for (const ClusterPeer& p : peers) {
    cluster::Member m;
    m.name = p.name;
    m.host = p.host;
    m.port = p.port;
    members.push_back(std::move(m));
  }
  return members;
}

ClusterController::ClusterController(Broker& broker, ClusterNodeConfig config)
    : broker_(broker),
      config_(std::move(config)),
      generation_(WallGeneration()),
      ring_(PeerNames(config_.members)),
      membership_(config_.self, generation_, MembersFromPeers(config_.members),
                  cluster::MembershipConfig{config_.suspect_after,
                                            config_.dead_after}) {
  membership_.SetQuorum(config_.replication_factor, config_.write_quorum);
  for (const ClusterPeer& p : config_.members) {
    if (p.name == config_.self) continue;
    Peer peer;
    peer.info = p;
    ClientConfig base;
    base.host = p.host;
    base.port = p.port;
    base.request_timeout = config_.peer_timeout;
    base.connect_timeout = config_.peer_timeout;
    // One connect attempt per use: a dead peer must fail a probe fast,
    // not eat the round in reconnect backoff. Reconnection pressure is
    // the probe interval itself.
    base.connect_retry.max_attempts = 1;
    ClientConfig probe = base;
    probe.client_name = config_.self + ".probe";
    ClientConfig route = base;
    route.client_name = config_.self + ".route";
    peer.probe = std::make_unique<ApolloClient>(std::move(probe));
    peer.route = std::make_unique<ApolloClient>(std::move(route));
    peers_.emplace(p.name, std::move(peer));
  }
}

ClusterController::~ClusterController() { Stop(); }

Status ClusterController::Start(MapPushFn push) {
  if (running_) {
    return Status(ErrorCode::kFailedPrecondition, "controller already running");
  }
  if (config_.self.empty() ||
      std::none_of(config_.members.begin(), config_.members.end(),
                   [this](const ClusterPeer& p) {
                     return p.name == config_.self;
                   })) {
    return Status(ErrorCode::kInvalidArgument,
                  "cluster self name missing from member list");
  }
  {
    // The loop thread may already be serving an inbound heartbeat (the
    // daemon starts its server first), so install the push target under
    // the same lock MaybePushMap reads it with.
    std::lock_guard<std::mutex> g(push_mu_);
    push_ = std::move(push);
  }
  stop_ = false;
  running_ = true;
  resync_needed_.store(true, std::memory_order_release);
  probe_thread_ = std::thread([this] { ProbeLoop(); });
  return Status::Ok();
}

void ClusterController::Stop() {
  {
    std::lock_guard<std::mutex> g(probe_mu_);
    if (!running_) return;
    running_ = false;
    stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

void ClusterController::ProbeLoop() {
  Clock& clock = RealClock::Instance();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(probe_mu_);
      probe_cv_.wait_for(
          lock, std::chrono::nanoseconds(config_.heartbeat_interval),
          [this] { return stop_; });
      if (stop_) return;
    }
    ProbeRound(clock.Now());
    if (resync_needed_.load(std::memory_order_acquire) ||
        membership_.SelfState() == cluster::MemberState::kJoining) {
      if (DoResync()) {
        resync_needed_.store(false, std::memory_order_release);
        membership_.SetSelfState(cluster::MemberState::kAlive);
        // Announce the promotion immediately instead of waiting one
        // interval: peers route to us again within this round.
        ProbeRound(clock.Now());
      }
    }
    membership_.Tick(clock.Now());
    SyncCounters();
    MaybePushMap();
  }
}

void ClusterController::ProbeRound(TimeNs now) {
  auto& telemetry = GlobalTelemetry();
  HeartbeatMsg hb;
  hb.sender = config_.self;
  hb.generation = generation_;
  hb.state = static_cast<std::uint8_t>(membership_.SelfState());
  hb.map_version = membership_.Snapshot().version;
  for (auto& [name, peer] : peers_) {
    if (FaultInjector* injector = broker_.fault_injector()) {
      if (auto action =
              injector->Evaluate(FaultSite::kHeartbeatLoss, name)) {
        if (action->fails()) {
          // Dropped probe: the peer goes silent from our side this round.
          telemetry.cluster_heartbeat_failures.Inc();
          membership_.ProbeFailed(name, now);
          continue;
        }
        broker_.clock().Charge(action->delay_ns);
      }
    }
    telemetry.cluster_heartbeats_sent.Inc();
    auto ack = peer.probe->Heartbeat(hb);
    if (!ack.ok()) {
      telemetry.cluster_heartbeat_failures.Inc();
      membership_.ProbeFailed(name, now);
      continue;
    }
    membership_.Observe(name, ack->generation, StateFromWire(ack->state),
                        RealClock::Instance().Now());
  }
}

bool ClusterController::DoResync() {
  TRACE_SPAN("cluster.resync");
  auto& telemetry = GlobalTelemetry();
  // Sources: every contactable peer's topic list. A topic listed nowhere
  // else is already as caught up as it can get.
  std::map<std::string, std::vector<std::string>> topic_sources;
  for (auto& [name, peer] : peers_) {
    auto topics = peer.probe->ListTopics();
    if (!topics.ok()) continue;
    for (const TopicInfo& info : *topics) {
      topic_sources[info.name].push_back(name);
    }
  }
  const cluster::ClusterMap map = membership_.Snapshot();
  const auto eligible = [&](const std::string& name) {
    if (name == config_.self) return true;  // we are rejoining
    const cluster::Member* m = map.Find(name);
    return m != nullptr && (m->state == cluster::MemberState::kAlive ||
                            m->state == cluster::MemberState::kSuspect);
  };
  bool complete = true;
  for (const auto& [topic, sources] : topic_sources) {
    const std::vector<std::string> replicas = ring_.ReplicasFor(
        topic, config_.replication_factor, eligible);
    if (std::find(replicas.begin(), replicas.end(), config_.self) ==
        replicas.end()) {
      continue;  // not placed here
    }
    // Prefer replica peers (they hold the authoritative tail), then any
    // other peer that listed the topic.
    std::vector<std::string> ordered;
    for (const std::string& r : replicas) {
      if (r != config_.self &&
          std::find(sources.begin(), sources.end(), r) != sources.end()) {
        ordered.push_back(r);
      }
    }
    for (const std::string& s : sources) {
      if (std::find(ordered.begin(), ordered.end(), s) == ordered.end()) {
        ordered.push_back(s);
      }
    }
    bool done = false;
    for (const std::string& src : ordered) {
      if (ResyncTopicFrom(peers_.at(src), topic)) {
        done = true;
        break;
      }
    }
    if (done) {
      telemetry.cluster_resync_topics.Inc();
    } else {
      complete = false;
    }
  }
  return complete;
}

bool ClusterController::ResyncTopicFrom(Peer& source,
                                        const std::string& topic) {
  auto& telemetry = GlobalTelemetry();
  auto stream = broker_.EnsureTopic(topic);
  if (!stream.ok()) return false;
  // Bounded only as a runaway guard: each full page advances NextId.
  for (int round = 0; round < 1 << 20; ++round) {
    const std::uint64_t from = (*stream)->NextId();
    auto page = source.probe->FetchWindow(topic, from, kCatchUpPage);
    if (!page.ok()) return false;
    const std::vector<TelemetryStream::Entry>& entries = page->entries;
    if (entries.empty()) return true;  // at the source's NextId
    if (entries.front().id > from) {
      // The source evicted entries below the page. An empty local stream
      // restores directly at the source's floor; non-empty local history
      // with a gap to the replica's floor is a stale island — replica
      // truth wins, so recreate and restore.
      if (from > 0) {
        (void)broker_.RemoveTopic(topic);
        stream = broker_.EnsureTopic(topic);
        if (!stream.ok()) return false;
      }
      if (!broker_.RestoreTopicFromPeer(topic, entries).ok()) return false;
    } else {
      // A window read starts at its cursor or past it, never below, so
      // the page goes on where the stream ends.
      auto handle = broker_.Resolve(topic);
      if (!handle.ok()) return false;
      if (!broker_.AppendReplicated(*handle, entries.data(), entries.size())
               .ok()) {
        return false;
      }
    }
    telemetry.cluster_resync_entries.Inc(entries.size());
    // A short page reached the source's NextId.
    if (entries.size() < kCatchUpPage) return true;
  }
  return false;
}

void ClusterController::MaybePushMap() {
  std::lock_guard<std::mutex> g(push_mu_);
  const cluster::ClusterMap map = membership_.Snapshot();
  if (map.version == last_pushed_version_ || !push_) return;
  last_pushed_version_ = map.version;
  GlobalTelemetry().cluster_map_pushes.Inc();
  push_(map);
}

void ClusterController::SyncCounters() {
  auto& telemetry = GlobalTelemetry();
  const std::uint64_t suspects = membership_.Suspects();
  const std::uint64_t deaths = membership_.Deaths();
  const std::uint64_t recoveries = membership_.Recoveries();
  if (suspects > seen_suspects_) {
    telemetry.cluster_peer_suspects.Inc(suspects - seen_suspects_);
    seen_suspects_ = suspects;
  }
  if (deaths > seen_deaths_) {
    telemetry.cluster_peer_deaths.Inc(deaths - seen_deaths_);
    seen_deaths_ = deaths;
  }
  if (recoveries > seen_recoveries_) {
    telemetry.cluster_peer_recoveries.Inc(recoveries - seen_recoveries_);
    seen_recoveries_ = recoveries;
  }
}

std::vector<const cluster::Member*> ClusterController::Replicas(
    const cluster::ClusterMap& map, const std::string& topic) const {
  return cluster::AliveReplicasFor(ring_, map, topic);
}

void ClusterController::HandleHeartbeat(const HeartbeatMsg& msg,
                                        HeartbeatMsg& ack) {
  // Passive observation: an inbound probe proves the sender is up, which
  // is how a rejoining peer reappears here within one of ITS intervals
  // even before our own probe reaches it.
  membership_.Observe(msg.sender, msg.generation, StateFromWire(msg.state),
                      RealClock::Instance().Now());
  ack.sender = config_.self;
  ack.generation = generation_;
  ack.state = static_cast<std::uint8_t>(membership_.SelfState());
  ack.map_version = membership_.Snapshot().version;
  MaybePushMap();
}

void ClusterController::HandleReplicate(const ReplicateMsg& msg,
                                        ReplicateAckMsg& ack) {
  auto& telemetry = GlobalTelemetry();
  auto stream = broker_.EnsureTopic(msg.topic);
  if (!stream.ok()) {
    ack.verdict = ReplicateAckMsg::Verdict::kRefused;
    ack.next_id = 0;
    return;
  }
  const std::uint64_t next = (*stream)->NextId();
  if (next < msg.expected_base) {
    // We missed earlier entries (likely while restarting): refuse and
    // self-schedule a catch-up rather than appending a hole.
    ack.verdict = ReplicateAckMsg::Verdict::kBehind;
    ack.next_id = next;
    resync_needed_.store(true, std::memory_order_release);
    telemetry.cluster_replication_failures.Inc();
    return;
  }
  if (next > msg.expected_base) {
    // The PRIMARY is behind us — it must resync before writing.
    ack.verdict = ReplicateAckMsg::Verdict::kAhead;
    ack.next_id = next;
    telemetry.cluster_replication_failures.Inc();
    return;
  }
  auto handle = broker_.Resolve(msg.topic);
  if (!handle.ok()) {
    ack.verdict = ReplicateAckMsg::Verdict::kRefused;
    ack.next_id = next;
    return;
  }
  auto applied = broker_.AppendReplicated(*handle, msg.entries.data(),
                                          msg.entries.size());
  if (!applied.ok()) {
    ack.verdict = ReplicateAckMsg::Verdict::kRefused;
    ack.next_id = (*stream)->NextId();
    return;
  }
  ack.verdict = ReplicateAckMsg::Verdict::kApplied;
  ack.next_id = (*stream)->NextId();
}

void ClusterController::FailRun(PublishBatchAckMsg& ack, std::size_t base,
                                std::size_t n, ErrorCode code,
                                const std::string& error) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bit = static_cast<std::uint32_t>(base + i);
    if (!ack.Failed(bit)) ack.MarkFailed(bit);
  }
  if (ack.first_error.empty()) {
    ack.first_error_code = code;
    ack.first_error = error;
  }
}

void ClusterController::RouteBatch(const PublishBatchMsg& msg, bool forwarded,
                                   PublishBatchAckMsg& ack) {
  TRACE_SPAN("cluster.route_batch");
  auto& telemetry = GlobalTelemetry();
  const cluster::ClusterMap map = membership_.Snapshot();
  std::size_t base = 0;
  for (const PublishBatchMsg::Run& run : msg.runs) {
    const std::size_t n = run.entries.size();
    const std::vector<const cluster::Member*> replicas =
        Replicas(map, run.topic);
    if (replicas.empty()) {
      FailRun(ack, base, n, ErrorCode::kUnavailable,
              "no live replica for topic " + run.topic);
      base += n;
      continue;
    }
    if (replicas[0]->name != config_.self) {
      if (forwarded) {
        // Never forward twice: the hop count of a routing disagreement is
        // capped at one, and the original sender retries with a fresher
        // map instead of the cluster playing hot potato.
        FailRun(ack, base, n, ErrorCode::kFailedPrecondition,
                "not the primary for " + run.topic + " (primary is " +
                    replicas[0]->name + ")");
        base += n;
        continue;
      }
      auto peer = peers_.find(replicas[0]->name);
      if (peer == peers_.end()) {
        FailRun(ack, base, n, ErrorCode::kInternal,
                "primary " + replicas[0]->name + " not configured");
        base += n;
        continue;
      }
      PublishBatchMsg sub;
      sub.runs.push_back(run);
      telemetry.cluster_forwarded_publishes.Inc();
      auto sub_ack = peer->second.route->PublishBatch(sub, kFlagForwarded);
      if (!sub_ack.ok()) {
        FailRun(ack, base, n, sub_ack.error().code(),
                sub_ack.error().message());
        base += n;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (sub_ack->Failed(static_cast<std::uint32_t>(i))) {
          ack.MarkFailed(static_cast<std::uint32_t>(base + i));
        }
      }
      if (sub_ack->error_count > 0 && ack.first_error.empty()) {
        ack.first_error_code = sub_ack->first_error_code;
        ack.first_error = sub_ack->first_error;
      }
      if (sub_ack->error_count < sub_ack->count) {
        ack.last_entry_id = sub_ack->last_entry_id;
      }
      base += n;
      continue;
    }

    // Self is the primary: admit each entry HERE (Broker::Admit: the
    // timestamp rule and one kPublish roll for the whole replica set),
    // replicate survivors, then append locally once the quorum is in.
    auto stream = broker_.EnsureTopic(run.topic);
    if (!stream.ok()) {
      FailRun(ack, base, n, stream.error().code(), stream.error().message());
      base += n;
      continue;
    }
    std::vector<TelemetryStream::Entry> survivors;
    survivors.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Status verdict = broker_.Admit(run.topic, run.entries[i]);
      if (verdict.ok()) {
        survivors.push_back(run.entries[i]);
        continue;
      }
      ack.MarkFailed(static_cast<std::uint32_t>(base + i));
      if (ack.first_error.empty()) {
        ack.first_error_code = verdict.code();
        ack.first_error = verdict.message();
      }
    }
    const std::uint64_t expected_base = (*stream)->NextId();
    std::uint32_t acks = 1;  // self applies below
    bool stale_primary = false;
    FaultInjector* injector = broker_.fault_injector();
    for (std::size_t r = 1; r < replicas.size(); ++r) {
      const std::string& name = replicas[r]->name;
      if (injector != nullptr) {
        if (auto action = injector->Evaluate(FaultSite::kReplicaLag, name)) {
          if (action->fails()) {
            telemetry.cluster_replication_failures.Inc();
            continue;  // replica skipped this round; resyncs via kBehind
          }
          broker_.clock().Charge(action->delay_ns);
        }
      }
      auto peer = peers_.find(name);
      if (peer == peers_.end()) continue;
      ReplicateMsg rep;
      rep.origin = config_.self;
      rep.topic = run.topic;
      rep.expected_base = expected_base;
      rep.entries = survivors;
      telemetry.cluster_replication_batches.Inc();
      auto verdict = peer->second.route->Replicate(rep);
      if (!verdict.ok()) {
        telemetry.cluster_replication_failures.Inc();
        continue;
      }
      if (verdict->verdict == ReplicateAckMsg::Verdict::kApplied) {
        ++acks;
      } else if (verdict->verdict == ReplicateAckMsg::Verdict::kAhead) {
        stale_primary = true;
        break;
      }
      // kBehind/kRefused: already counted by the replica's side or
      // uncountable; the quorum check below decides the run's fate.
    }
    if (stale_primary) {
      // A secondary holds entries we do not: we are the stale
      // incarnation. Abort without appending, drop back to kJoining and
      // let the resync pass pull the truth before serving writes again.
      membership_.SetSelfState(cluster::MemberState::kJoining);
      resync_needed_.store(true, std::memory_order_release);
      MaybePushMap();
      FailRun(ack, base, n, ErrorCode::kFailedPrecondition,
              "stale primary for " + run.topic + "; resyncing");
      base += n;
      continue;
    }
    if (acks < std::min<std::uint32_t>(
                   config_.write_quorum,
                   static_cast<std::uint32_t>(replicas.size()))) {
      telemetry.cluster_quorum_failures.Inc();
      FailRun(ack, base, n, ErrorCode::kUnavailable,
              "write quorum not met for " + run.topic + " (" +
                  std::to_string(acks) + "/" +
                  std::to_string(config_.write_quorum) + ")");
      base += n;
      continue;
    }
    if (!survivors.empty()) {
      auto handle = broker_.Resolve(run.topic);
      if (!handle.ok()) {
        FailRun(ack, base, n, handle.error().code(),
                handle.error().message());
        base += n;
        continue;
      }
      auto last = broker_.AppendReplicated(*handle, survivors.data(),
                                           survivors.size());
      if (!last.ok()) {
        FailRun(ack, base, n, last.error().code(), last.error().message());
        base += n;
        continue;
      }
      ack.last_entry_id = *last;
    }
    base += n;
  }
}

}  // namespace apollo::net
