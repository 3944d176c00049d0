// Broker: named-stream registry plus a simple network cost model.
//
// SCoRe vertices on different (simulated) nodes communicate through broker
// streams. A publish or fetch that crosses nodes pays the configured per-hop
// latency, which is what makes the degree/Hamming-distance effects of
// Figure 7 observable in a single process.
//
// Hot-path layout: the topic registry is one map behind one mutex, taken
// at deploy/plan time and when a handle re-resolves after topic churn, not
// per publish. Steady-state callers resolve a TopicHandle once and
// publish/fetch through it; a registry version counter lets handles
// self-heal after churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "pubsub/stream.h"

namespace apollo {

using NodeId = std::int32_t;
constexpr NodeId kLocalNode = -1;

// Models the cluster interconnect. Latency(a, b) returns the one-way message
// latency between nodes a and b in nanoseconds.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;
  virtual TimeNs Latency(NodeId from, NodeId to) const = 0;
};

// Uniform latency for any remote hop; zero for local delivery.
class UniformNetwork final : public NetworkModel {
 public:
  explicit UniformNetwork(TimeNs hop_latency) : hop_latency_(hop_latency) {}
  TimeNs Latency(NodeId from, NodeId to) const override {
    return (from == to || from == kLocalNode || to == kLocalNode)
               ? 0
               : hop_latency_;
  }

 private:
  TimeNs hop_latency_;
};

struct TopicInfo {
  std::string name;
  NodeId home_node = kLocalNode;  // node hosting the stream
};

// Publish-path hook: notified after entries land in a stream, from the
// publisher's thread. Implementations must be cheap and thread-safe (the
// continuous-query engine just flips a per-topic dirty flag); anything
// heavier belongs on the observer's own thread.
class PublishObserver {
 public:
  virtual ~PublishObserver() = default;
  virtual void OnPublish(const std::string& topic, std::size_t n) = 0;
};

// Stable reference to a topic: the stream pointer plus its cached home node,
// resolved once instead of per-publish. A handle records the registry
// version it was resolved under; broker accessors revalidate (one relaxed
// atomic load) and transparently re-resolve by name after topic churn.
// Holding a handle does not keep a removed topic alive — like raw
// TelemetryStream pointers, teardown is coordinated by the caller.
class TopicHandle {
 public:
  TopicHandle() = default;

  bool valid() const { return stream_ != nullptr; }
  TelemetryStream* stream() const { return stream_; }
  NodeId home_node() const { return home_; }
  const std::string& name() const { return name_; }

 private:
  friend class Broker;
  TopicHandle(std::string name, TelemetryStream* stream, NodeId home,
              std::uint64_t version)
      : name_(std::move(name)),
        stream_(stream),
        home_(home),
        version_(version) {}

  std::string name_;
  TelemetryStream* stream_ = nullptr;
  NodeId home_ = kLocalNode;
  std::uint64_t version_ = 0;
};

class Broker {
 public:
  // `clock` is used to charge simulated network latency (SleepFor). A null
  // network model makes every hop free.
  explicit Broker(Clock& clock,
                  std::shared_ptr<const NetworkModel> network = nullptr)
      : clock_(clock),
        network_(std::move(network)),
        publishes_(GlobalTelemetry().publishes) {}

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // Creates a telemetry stream hosted on `home_node`. Fails if the topic
  // already exists.
  Expected<TelemetryStream*> CreateTopic(const std::string& name,
                                         NodeId home_node = kLocalNode,
                                         std::size_t capacity = 4096,
                                         Archiver<Sample>* archiver = nullptr);

  // Looks up an existing topic's stream.
  Expected<TelemetryStream*> GetTopic(const std::string& name) const;

  // Cluster resync path: seeds an existing topic's (still-empty) stream
  // with a window copied from a peer replica, preserving the peer's entry
  // ids (Stream::RestoreWindowAt). Ids must be contiguous.
  Status RestoreTopicFromPeer(
      const std::string& name,
      const std::vector<TelemetryStream::Entry>& entries);

  // Creates the topic if absent, otherwise returns the existing stream —
  // the replication/resync paths materialize topics on replicas on first
  // contact instead of coordinating creation cluster-wide.
  Expected<TelemetryStream*> EnsureTopic(
      const std::string& name, NodeId home_node = kLocalNode,
      std::size_t capacity = 4096, Archiver<Sample>* archiver = nullptr);

  // Resolves a stable handle for steady-state access (deploy/plan time).
  Expected<TopicHandle> Resolve(const std::string& name) const;

  // Removes a topic. The stream is destroyed; outstanding pointers and
  // handles dangle, so callers coordinate teardown (vertices unregister
  // before removal).
  Status RemoveTopic(const std::string& name);

  bool HasTopic(const std::string& name) const;
  std::vector<TopicInfo> ListTopics() const;

  // --- string-keyed access (registry lookup per call) ---

  // Publishes to a topic from `from_node`, charging network latency when the
  // topic lives on a different node. Returns the assigned entry id, or
  // Admit's verdict.
  Expected<std::uint64_t> Publish(const std::string& topic, NodeId from_node,
                                  TimeNs timestamp, const Sample& sample);

  // Fetches entries past `cursor` from `to_node`'s perspective, charging
  // network latency for remote topics. Advances cursor.
  Expected<std::vector<TelemetryStream::Entry>> Fetch(
      const std::string& topic, NodeId to_node, std::uint64_t& cursor,
      std::size_t max_entries = SIZE_MAX);

  // Latest entry of a topic as seen from `to_node` (charges latency).
  Expected<Sample> LatestValue(const std::string& topic, NodeId to_node);

  // --- handle access (no registry lookup on the steady-state path) ---

  Expected<std::uint64_t> Publish(TopicHandle& handle, NodeId from_node,
                                  TimeNs timestamp, const Sample& sample);

  // Result of a batched publish to one topic run.
  struct BatchPublishResult {
    std::uint64_t last_entry_id = 0;  // valid when accepted > 0
    std::size_t accepted = 0;
    // First per-entry failure (Admit's verdict), when accepted < n.
    ErrorCode first_error_code = ErrorCode::kUnavailable;
    std::string first_error;
  };

  // Batched publish of `n` entries (id fields ignored) to one topic — the
  // wire ingest handoff. One handle refresh, one network-latency charge
  // (the run arrived as one wire message), and one stream-lock acquisition
  // via Stream::AppendBatch instead of n. Each entry gets Admit's verdict,
  // so chaos accounting stays exact: a refused entry sets bit
  // (bitmap_base + i) in `error_bits` (when non-null; the caller sizes it)
  // and is skipped while the rest of the run proceeds. An error return
  // (unknown topic) means the whole run failed and no bits were set.
  Expected<BatchPublishResult> PublishBatch(
      TopicHandle& handle, NodeId from_node,
      const TelemetryStream::Entry* entries, std::size_t n,
      std::vector<std::uint8_t>* error_bits = nullptr,
      std::size_t bitmap_base = 0);

  // The verdict on a sample entering this node, asked by Publish,
  // PublishBatch and the cluster primary's RouteBatch before it gets an id:
  // kInvalidArgument when its timestamp differs from the entry's (a row has
  // one time), else kPublish for `topic` (a drop counts in publish_drops).
  Status Admit(const std::string& topic, const TelemetryStream::Entry& entry);

  // Replication apply: appends `n` entries exactly as decided by the
  // topic's primary — no fault evaluation, no latency charge, no retry.
  // A secondary must mirror its primary byte-for-byte; re-rolling fault
  // dice here would silently fork the replicas' id sequences. Returns the
  // last assigned entry id.
  Expected<std::uint64_t> AppendReplicated(TopicHandle& handle,
                                           const TelemetryStream::Entry* entries,
                                           std::size_t n);

  Expected<std::vector<TelemetryStream::Entry>> Fetch(
      TopicHandle& handle, NodeId to_node, std::uint64_t& cursor,
      std::size_t max_entries = SIZE_MAX);

  // Allocation-free fetch into a caller-owned scratch buffer (cleared
  // first). Returns the number of entries read.
  Expected<std::size_t> FetchInto(TopicHandle& handle, NodeId to_node,
                                  std::uint64_t& cursor,
                                  std::vector<TelemetryStream::Entry>& out,
                                  std::size_t max_entries = SIZE_MAX);

  Expected<Sample> LatestValue(TopicHandle& handle, NodeId to_node);

  // --- fault tolerance ---

  // Attaches a fault injector: publishes evaluate FaultSite::kPublish and
  // fetches FaultSite::kFetch (topic-filtered). Null detaches. The injector
  // is not owned and must outlive its attachment.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_.load(std::memory_order_acquire);
  }

  // Attaches a publish observer, notified after every successful append
  // (all three append paths: Publish, PublishBatch, AppendReplicated).
  // Null detaches. Not owned; must outlive its attachment.
  void AttachPublishObserver(PublishObserver* observer) {
    publish_observer_.store(observer, std::memory_order_release);
  }

  // Publish/fetch with retry-and-exponential-backoff: transient failures
  // (injected drops/timeouts, kUnavailable) retry up to the policy's
  // attempt budget, charging backoff to the clock so simulated runs account
  // for it; a policy deadline bounds the total time spent. The final
  // failure is surfaced (and counted in GlobalTelemetry()) instead of
  // silently losing the tuple.
  Expected<std::uint64_t> PublishWithRetry(TopicHandle& handle,
                                           NodeId from_node, TimeNs timestamp,
                                           const Sample& sample,
                                           const RetryPolicy& policy = {});

  Expected<std::size_t> FetchIntoWithRetry(
      TopicHandle& handle, NodeId to_node, std::uint64_t& cursor,
      std::vector<TelemetryStream::Entry>& out,
      std::size_t max_entries = SIZE_MAX, const RetryPolicy& policy = {});

  // Charges one topic->node network hop without touching the stream — the
  // query path uses this instead of a zero-length Fetch probe.
  Status ChargeHop(TopicHandle& handle, NodeId node);

  NodeId HomeNode(const std::string& topic) const;

  // Registry version: bumped on topic create/remove. Handle caches (query
  // plans, vertices) compare against this to detect churn.
  std::uint64_t RegistryVersion() const {
    return version_.load(std::memory_order_acquire);
  }

  Clock& clock() { return clock_; }

 private:
  struct Topic {
    TopicInfo info;
    std::unique_ptr<TelemetryStream> stream;
  };

  // Revalidates `handle` against the current registry version, re-resolving
  // by name when stale. Hot path: one atomic load and a compare.
  Status Refresh(TopicHandle& handle);

  void ChargeLatency(NodeId a, NodeId b);

  // Consults the attached injector (if any) at `site` for `topic`. Delay
  // actions are charged to the clock here; a hard failure returns an error
  // Status. One relaxed load when no injector is attached.
  Status EvaluateFault(FaultSite site, const std::string& topic);

  Clock& clock_;
  std::shared_ptr<const NetworkModel> network_;
  // Publish-path counter handle, resolved once at construction. Bumping a
  // copied handle skips GlobalTelemetry()'s function-local-static guard on
  // every publish (it shares the same registry cell, so the facade and
  // Prometheus exposition see every increment).
  obs::Counter publishes_;
  // Notifies the attached publish observer (if any) that `n` entries
  // landed in `topic`. One relaxed load when nothing is attached.
  void NotifyPublish(const std::string& topic, std::size_t n);

  std::atomic<std::uint64_t> version_{1};
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<PublishObserver*> publish_observer_{nullptr};
  mutable std::mutex mu_;  // guards topics_
  std::unordered_map<std::string, Topic> topics_;
};

}  // namespace apollo
