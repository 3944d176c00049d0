// VertexSupervisor: detects crashed and stalled SCoRe vertices and
// restarts them with bounded exponential backoff.
//
// A vertex "crashes" when its timer dies with the crash flag set (the
// kVertexPoll fault site, or ForceCrash). It "stalls" when the timer dies
// silently (kVertexStall) or wedges: the supervisor treats a firing gap
// much larger than the vertex's expected interval as a stall and converts
// it into a crash, so both failure modes flow through one restart path.
//
// While a vertex is down its stream is flagged degraded; AQE keeps
// answering from last-known-good / predicted values with an explicit
// staleness marker, and the flag clears on the first measured publish
// after restart. Vertices that keep crashing are given up on after
// max_restarts, which is what turns a flapping node "unavailable" in
// AvailableNodes() — the real signal behind the node-availability insight
// (previously synthetic input).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "eventloop/event_loop.h"
#include "score/score_graph.h"

namespace apollo {

struct SupervisorOptions {
  // Health-check cadence (one event-loop timer).
  TimeNs check_interval = Millis(500);
  // A vertex is stalled when now - last_fire() exceeds
  // max(stall_timeout, stall_factor * ExpectedFireInterval()). The factor
  // keeps adaptive vertices with long AIMD intervals from being
  // false-crashed.
  TimeNs stall_timeout = Seconds(2);
  int stall_factor = 4;
  // Restart backoff: first restart waits initial_restart_backoff, each
  // subsequent one multiplies it, capped at max_restart_backoff. The
  // actual wait gets full jitter (uniform in [backoff*(1-jitter),
  // backoff]) so the vertices of a node that died together do not
  // restart — and re-poll their hardware — in lockstep.
  TimeNs initial_restart_backoff = Millis(10);
  double backoff_multiplier = 2.0;
  TimeNs max_restart_backoff = Seconds(5);
  double restart_jitter = 1.0;
  // After this many restarts without a healthy stretch the supervisor
  // gives up on the vertex (it stays crashed and its node unavailable).
  int max_restarts = 8;
  // A vertex that stays healthy this long after a restart earns its
  // restart budget back.
  TimeNs healthy_reset = Seconds(10);
};

class VertexSupervisor {
 public:
  // Health snapshot of one supervised vertex.
  struct VertexHealth {
    std::string topic;
    NodeId node = kLocalNode;
    bool crashed = false;
    bool gave_up = false;
    int restarts = 0;
    TimeNs last_fire = 0;
  };

  VertexSupervisor(ScoreGraph& graph, SupervisorOptions options = {});
  ~VertexSupervisor();

  VertexSupervisor(const VertexSupervisor&) = delete;
  VertexSupervisor& operator=(const VertexSupervisor&) = delete;

  // Registers the health-check timer on `loop`; Stop cancels it. Vertices
  // must not be Remove()d from the graph while the supervisor runs —
  // clients Stop() first (the same teardown coordination the graph already
  // requires).
  Status Start(EventLoop& loop);
  void Stop();

  // One supervision pass (normally driven by the timer; exposed so tests
  // and SimClock runs can step it deterministically).
  void Poll(TimeNs now);

  std::vector<VertexHealth> Snapshot() const;

  // Nodes hosting at least one supervised vertex, none of which is
  // currently crashed / given up on.
  std::size_t AvailableNodes() const;
  // Nodes hosting at least one supervised vertex.
  std::size_t KnownNodes() const;
  // True when `node` hosts no crashed / given-up vertex. Nodes the
  // supervisor has never seen a vertex on are healthy by definition, so
  // callers can intersect this with an external liveness signal.
  bool NodeHealthy(NodeId node) const;

  std::uint64_t crashes_seen() const {
    return crashes_seen_.load(std::memory_order_relaxed);
  }
  std::uint64_t stalls_detected() const {
    return stalls_detected_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts_issued() const {
    return restarts_issued_.load(std::memory_order_relaxed);
  }
  std::uint64_t give_ups() const {
    return give_ups_.load(std::memory_order_relaxed);
  }

  const SupervisorOptions& options() const { return options_; }

 private:
  struct Entry {
    int restarts = 0;
    TimeNs backoff = 0;          // next restart's delay
    TimeNs next_restart_at = 0;  // 0 = no restart scheduled
    TimeNs last_restart_at = 0;
    bool gave_up = false;
    bool was_crashed = false;  // edge-detect crash transitions
  };

  void SuperviseLocked(Vertex& vertex, TimeNs now);

  ScoreGraph& graph_;
  SupervisorOptions options_;

  EventLoop* loop_ = nullptr;
  TimerId timer_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;

  std::atomic<std::uint64_t> crashes_seen_{0};
  std::atomic<std::uint64_t> stalls_detected_{0};
  std::atomic<std::uint64_t> restarts_issued_{0};
  std::atomic<std::uint64_t> give_ups_{0};
};

}  // namespace apollo
