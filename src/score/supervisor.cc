#include "score/supervisor.h"

#include <algorithm>
#include <set>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo {

VertexSupervisor::VertexSupervisor(ScoreGraph& graph,
                                   SupervisorOptions options)
    : graph_(graph), options_(options) {}

VertexSupervisor::~VertexSupervisor() { Stop(); }

Status VertexSupervisor::Start(EventLoop& loop) {
  if (started_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "supervisor already started");
  }
  loop_ = &loop;
  timer_ = loop.AddTimer(options_.check_interval, [this](TimeNs now) {
    Poll(now);
    return options_.check_interval;
  });
  started_ = true;
  return Status::Ok();
}

void VertexSupervisor::Stop() {
  if (!started_) return;
  loop_->CancelTimer(timer_);
  started_ = false;
  loop_ = nullptr;
}

void VertexSupervisor::SuperviseLocked(Vertex& vertex, TimeNs now) {
  Entry& entry = entries_[vertex.topic()];
  if (entry.gave_up) return;

  if (!vertex.crashed()) {
    // Stall check: a firing gap far beyond the vertex's own cadence means
    // the timer died silently or the vertex is wedged. Convert it to a
    // crash so the restart path below handles it.
    const TimeNs threshold =
        std::max(options_.stall_timeout,
                 static_cast<TimeNs>(options_.stall_factor) *
                     vertex.ExpectedFireInterval());
    if (now - vertex.last_fire() > threshold) {
      stalls_detected_.fetch_add(1, std::memory_order_relaxed);
      GlobalTelemetry().vertex_stalls.Inc();
      APOLLO_LOG(WARN) << "supervisor: vertex " << vertex.topic()
                       << " stalled (no firing for " << (now - vertex.last_fire())
                       << " ns), forcing crash";
      vertex.ForceCrash();
    } else {
      // Healthy. A sustained healthy stretch after a restart earns the
      // restart budget back.
      if (entry.restarts > 0 && entry.last_restart_at > 0 &&
          now - entry.last_restart_at > options_.healthy_reset) {
        entry.restarts = 0;
        entry.backoff = 0;
      }
      entry.was_crashed = false;
      return;
    }
  }

  // Crashed (or just force-crashed above).
  if (!entry.was_crashed) {
    entry.was_crashed = true;
    crashes_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  if (entry.restarts >= options_.max_restarts) {
    entry.gave_up = true;
    give_ups_.fetch_add(1, std::memory_order_relaxed);
    GlobalTelemetry().vertex_give_ups.Inc();
    APOLLO_LOG(ERROR) << "supervisor: giving up on vertex " << vertex.topic()
                      << " after " << entry.restarts << " restarts";
    return;
  }
  if (entry.next_restart_at == 0) {
    if (entry.backoff == 0) entry.backoff = options_.initial_restart_backoff;
    // Full jitter on the actual wait (entry.backoff stays the exact
    // exponential ceiling so the growth schedule is unchanged).
    RetryPolicy jitter_policy;
    jitter_policy.initial_backoff = entry.backoff;
    jitter_policy.multiplier = 1.0;
    jitter_policy.max_backoff = entry.backoff;
    jitter_policy.jitter = options_.restart_jitter;
    entry.next_restart_at = now + JitteredBackoffForAttempt(jitter_policy, 1);
    return;
  }
  if (now < entry.next_restart_at) return;

  Status restarted = vertex.Restart();
  entry.next_restart_at = 0;
  if (!restarted.ok()) {
    APOLLO_LOG(ERROR) << "supervisor: restart of " << vertex.topic()
                      << " failed: " << restarted.ToString();
    return;
  }
  ++entry.restarts;
  entry.last_restart_at = now;
  entry.backoff = std::min(
      static_cast<TimeNs>(static_cast<double>(entry.backoff) *
                          options_.backoff_multiplier),
      options_.max_restart_backoff);
  entry.was_crashed = false;
  restarts_issued_.fetch_add(1, std::memory_order_relaxed);
  GlobalTelemetry().vertex_restarts.Inc();
  APOLLO_LOG(WARN) << "supervisor: restarted vertex " << vertex.topic()
                   << " (restart #" << entry.restarts << ")";
}

void VertexSupervisor::Poll(TimeNs now) {
  TRACE_SPAN("supervisor.poll");
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& topic : graph_.AllTopics()) {
    auto vertex = graph_.Find(topic);
    if (vertex.ok()) SuperviseLocked(**vertex, now);
  }
}

std::vector<VertexSupervisor::VertexHealth> VertexSupervisor::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VertexHealth> out;
  for (const std::string& topic : graph_.AllTopics()) {
    auto vertex = graph_.Find(topic);
    if (!vertex.ok()) continue;
    VertexHealth health;
    health.topic = topic;
    health.node = (*vertex)->node();
    health.crashed = (*vertex)->crashed();
    health.last_fire = (*vertex)->last_fire();
    if (auto it = entries_.find(topic); it != entries_.end()) {
      health.gave_up = it->second.gave_up;
      health.restarts = it->second.restarts;
    }
    out.push_back(std::move(health));
  }
  return out;
}

std::size_t VertexSupervisor::AvailableNodes() const {
  std::set<NodeId> known;
  std::set<NodeId> down;
  for (const VertexHealth& health : Snapshot()) {
    known.insert(health.node);
    if (health.crashed || health.gave_up) down.insert(health.node);
  }
  return known.size() - down.size();
}

std::size_t VertexSupervisor::KnownNodes() const {
  std::set<NodeId> known;
  for (const VertexHealth& health : Snapshot()) known.insert(health.node);
  return known.size();
}

bool VertexSupervisor::NodeHealthy(NodeId node) const {
  for (const VertexHealth& health : Snapshot()) {
    if (health.node == node && (health.crashed || health.gave_up)) {
      return false;
    }
  }
  return true;
}

}  // namespace apollo
