// Vertex — the lifecycle every SCoRe vertex shares (§3.1, §3.2).
//
// A vertex owns a dedicated stream (queue + optional Archiver) and one
// EventLoop timer, so the same code runs in real time and in virtual time.
// The two kinds differ only in where a measured value comes from: a
// FactVertex polls a Monitor Hook at the interval its IntervalController
// picks; an InsightVertex pulls its upstream topics every pull_interval
// and combines their latest values with an InsightFn.
//
// Everything else is here, once: deploy and undeploy, the timer's
// produce/predict schedule, the kVertexPoll and kVertexStall fault sites,
// crash, restart and the stream's degraded flag, Delphi fill-in, and
// change-suppressed publishing with broker retries. When the produce
// interval stretches beyond the prediction granularity, the firings in
// between publish predicted samples until the next measured value is due.
//
// Destruction order: a subclass destructor calls Undeploy() first, so the
// timer is cancelled while the subclass's value source (hook, controller,
// upstream cursors) is still alive. The loop must never call Produce() on
// a half-destroyed vertex.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "delphi/predictor.h"
#include "eventloop/event_loop.h"
#include "pubsub/broker.h"
#include "score/vertex_stats.h"

namespace apollo {

class Vertex {
 public:
  virtual ~Vertex() = default;

  Vertex(const Vertex&) = delete;
  Vertex& operator=(const Vertex&) = delete;

  // Creates the topic and registers the timer on `loop`; the first value
  // is produced at once.
  Status Deploy(EventLoop& loop);

  // Cancels the timer. The topic (and its data) remain in the broker until
  // RemoveTopic is called explicitly.
  void Undeploy();

  // --- supervision surface ---
  // A vertex "crashes" when the kVertexPoll fault site fires in its timer
  // (the timer dies and the stream is marked degraded) or when ForceCrash
  // is called. The VertexSupervisor detects crashed/stalled vertices and
  // restarts them with bounded backoff.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // Clock time of the vertex's most recent timer firing (deploy time until
  // the first one). Supervisors treat a silent gap much larger than
  // ExpectedFireInterval() as a stall.
  TimeNs last_fire() const {
    return last_fire_.load(std::memory_order_acquire);
  }
  TimeNs ExpectedFireInterval() const;

  // Kills the vertex from outside its timer: cancels the timer, flags the
  // crash, and marks the stream degraded. No-op unless deployed and alive.
  void ForceCrash();

  // Restarts a crashed vertex: re-registers the timer (a value is produced
  // at once) and clears the crash flag. The stream stays degraded until
  // the first successful measured publish. Fails unless deployed and
  // crashed.
  Status Restart();

  const std::string& topic() const { return settings_.topic; }
  NodeId node() const { return settings_.node; }
  const VertexStats& stats() const { return stats_; }
  bool HasPredictor() const { return predictor_ != nullptr; }

  // The topics this vertex consumes; empty for a fact.
  virtual const std::vector<std::string>& upstream() const;

 protected:
  // The configuration both kinds share.
  struct Settings {
    std::string topic;
    NodeId node;
    std::size_t queue_capacity;
    bool publish_only_on_change;
    TimeNs prediction_granularity;
    RetryPolicy publish_retry;
  };

  // `delphi` may be null (no prediction). The vertex clones the model so
  // inference state is private.
  Vertex(Broker& broker, Settings settings,
         const delphi::DelphiModel* delphi, Archiver<Sample>* archiver);

  // Produces and publishes one measured value; returns the interval to
  // the next one.
  virtual TimeNs Produce(TimeNs now) = 0;
  // The current interval between measured values.
  virtual TimeNs ProduceInterval() const = 0;
  // Runs first in Deploy, before the topic is created.
  virtual Status Prepare() { return Status::Ok(); }

  // Publishes unless change suppression drops the value. A measured value
  // ends degraded mode.
  void PublishSample(TimeNs now, double value, Provenance provenance);

  Broker& broker_;
  const Settings settings_;
  std::unique_ptr<delphi::StreamingPredictor> predictor_;
  std::optional<double> last_published_;
  VertexStats stats_;

 private:
  TimeNs OnTimer(TimeNs now);
  void DoPrediction(TimeNs now);
  // Produces at once from the loop's current time (Deploy and Restart).
  void StartTimer();
  // Flags the crash and degrades the stream (shared by the injected-crash
  // path inside OnTimer and ForceCrash).
  void MarkCrashed();

  Archiver<Sample>* archiver_;
  // Resolved once at deploy time; publishes skip the topic registry.
  TopicHandle handle_;

  EventLoop* loop_ = nullptr;
  TimerId timer_ = 0;
  bool deployed_ = false;
  std::atomic<bool> crashed_{false};
  std::atomic<TimeNs> last_fire_{0};
  TimeNs next_produce_time_ = 0;
};

}  // namespace apollo
