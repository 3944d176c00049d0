#include "pubsub/broker.h"

#include <algorithm>

#include "obs/trace.h"

namespace apollo {

namespace {
bool TimestampsDiffer(const TelemetryStream::Entry& entry) {
  return entry.value.timestamp != entry.timestamp;
}
}  // namespace

Expected<TelemetryStream*> Broker::CreateTopic(const std::string& name,
                                               NodeId home_node,
                                               std::size_t capacity,
                                               Archiver<Sample>* archiver) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = topics_.try_emplace(name);
  if (!inserted) {
    return Error(ErrorCode::kAlreadyExists, "topic exists: " + name);
  }
  it->second.info = TopicInfo{name, home_node};
  it->second.stream = std::make_unique<TelemetryStream>(capacity, archiver);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return it->second.stream.get();
}

Expected<TelemetryStream*> Broker::GetTopic(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    return Error(ErrorCode::kNotFound, "no such topic: " + name);
  }
  return it->second.stream.get();
}

Status Broker::RestoreTopicFromPeer(
    const std::string& name,
    const std::vector<TelemetryStream::Entry>& entries) {
  auto stream = GetTopic(name);
  if (!stream.ok()) return stream.status();
  return stream.value()->RestoreWindowAt(entries);
}

Expected<TelemetryStream*> Broker::EnsureTopic(const std::string& name,
                                               NodeId home_node,
                                               std::size_t capacity,
                                               Archiver<Sample>* archiver) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = topics_.find(name);
    if (it != topics_.end()) return it->second.stream.get();
  }
  auto created = CreateTopic(name, home_node, capacity, archiver);
  if (created.ok()) return created;
  if (created.error().code() == ErrorCode::kAlreadyExists) {
    return GetTopic(name);  // lost a creation race: use the winner's
  }
  return created;
}

Expected<TopicHandle> Broker::Resolve(const std::string& name) const {
  // Read the version before the lookup: a topic created/removed after this
  // load at worst leaves the handle conservatively stale (it re-resolves on
  // first use), never wrongly fresh.
  const std::uint64_t version = version_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    return Error(ErrorCode::kNotFound, "no such topic: " + name);
  }
  return TopicHandle(name, it->second.stream.get(),
                     it->second.info.home_node, version);
}

Status Broker::RemoveTopic(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (topics_.erase(name) == 0) {
    return Status(ErrorCode::kNotFound, "no such topic: " + name);
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return topics_.count(name) > 0;
}

std::vector<TopicInfo> Broker::ListTopics() const {
  std::vector<TopicInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) out.push_back(topic.info);
  return out;
}

Expected<std::uint64_t> Broker::Publish(const std::string& topic,
                                        NodeId from_node, TimeNs timestamp,
                                        const Sample& sample) {
  auto handle = Resolve(topic);
  if (!handle.ok()) return handle.error();
  return Publish(*handle, from_node, timestamp, sample);
}

Expected<std::vector<TelemetryStream::Entry>> Broker::Fetch(
    const std::string& topic, NodeId to_node, std::uint64_t& cursor,
    std::size_t max_entries) {
  auto handle = Resolve(topic);
  if (!handle.ok()) return handle.error();
  return Fetch(*handle, to_node, cursor, max_entries);
}

Expected<Sample> Broker::LatestValue(const std::string& topic,
                                     NodeId to_node) {
  auto handle = Resolve(topic);
  if (!handle.ok()) return handle.error();
  return LatestValue(*handle, to_node);
}

Expected<std::uint64_t> Broker::Publish(TopicHandle& handle, NodeId from_node,
                                        TimeNs timestamp,
                                        const Sample& sample) {
  TRACE_SPAN("broker.publish", handle.name_);
  Status status = Refresh(handle);
  if (!status.ok()) return Error(status.code(), status.message());
  publishes_.Inc();
  status = Admit(handle.name_, TelemetryStream::Entry{0, timestamp, sample});
  if (!status.ok()) return Error(status.code(), status.message());
  ChargeLatency(from_node, handle.home_);
  auto id = handle.stream_->Append(timestamp, sample);
  NotifyPublish(handle.name_, 1);
  return id;
}

Expected<Broker::BatchPublishResult> Broker::PublishBatch(
    TopicHandle& handle, NodeId from_node,
    const TelemetryStream::Entry* entries, std::size_t n,
    std::vector<std::uint8_t>* error_bits, std::size_t bitmap_base) {
  TRACE_SPAN("broker.publish_batch", handle.name_);
  Status status = Refresh(handle);
  if (!status.ok()) return Error(status.code(), status.message());
  publishes_.Inc(n);
  ChargeLatency(from_node, handle.home_);
  BatchPublishResult result;
  if (n == 0) return result;
  // Fast path: nothing armed or refused — the whole run goes in one go.
  if (fault_.load(std::memory_order_acquire) == nullptr &&
      std::none_of(entries, entries + n, TimestampsDiffer)) {
    result.last_entry_id = handle.stream_->AppendBatch(entries, n);
    result.accepted = n;
    NotifyPublish(handle.name_, n);
    return result;
  }
  // Admit each entry; the survivors still append under one lock.
  std::vector<TelemetryStream::Entry> accepted;
  accepted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Status verdict = Admit(handle.name_, entries[i]);
    if (verdict.ok()) {
      accepted.push_back(entries[i]);
      continue;
    }
    if (result.first_error.empty()) {
      result.first_error_code = verdict.code();
      result.first_error = verdict.message();
    }
    if (error_bits != nullptr) {
      const std::size_t bit = bitmap_base + i;
      (*error_bits)[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  if (!accepted.empty()) {
    result.last_entry_id =
        handle.stream_->AppendBatch(accepted.data(), accepted.size());
    NotifyPublish(handle.name_, accepted.size());
  }
  result.accepted = accepted.size();
  return result;
}

Status Broker::Admit(const std::string& topic,
                     const TelemetryStream::Entry& entry) {
  if (TimestampsDiffer(entry)) {
    return Status(ErrorCode::kInvalidArgument,
                  "sample timestamp differs from its entry timestamp");
  }
  Status status = EvaluateFault(FaultSite::kPublish, topic);
  if (!status.ok()) GlobalTelemetry().publish_drops.Inc();
  return status;
}

Expected<std::uint64_t> Broker::AppendReplicated(
    TopicHandle& handle, const TelemetryStream::Entry* entries,
    std::size_t n) {
  TRACE_SPAN("broker.append_replicated", handle.name_);
  Status status = Refresh(handle);
  if (!status.ok()) return Error(status.code(), status.message());
  publishes_.Inc(n);
  if (n == 0) return handle.stream_->NextId();
  auto last = handle.stream_->AppendBatch(entries, n);
  NotifyPublish(handle.name_, n);
  return last;
}

Expected<std::vector<TelemetryStream::Entry>> Broker::Fetch(
    TopicHandle& handle, NodeId to_node, std::uint64_t& cursor,
    std::size_t max_entries) {
  std::vector<TelemetryStream::Entry> out;
  auto read = FetchInto(handle, to_node, cursor, out, max_entries);
  if (!read.ok()) return read.error();
  return out;
}

Expected<std::size_t> Broker::FetchInto(
    TopicHandle& handle, NodeId to_node, std::uint64_t& cursor,
    std::vector<TelemetryStream::Entry>& out, std::size_t max_entries) {
  TRACE_SPAN("broker.fetch", handle.name_);
  Status status = Refresh(handle);
  if (!status.ok()) return Error(status.code(), status.message());
  status = EvaluateFault(FaultSite::kFetch, handle.name_);
  if (!status.ok()) {
    GlobalTelemetry().fetch_timeouts.Inc();
    return Error(status.code(), status.message());
  }
  ChargeLatency(handle.home_, to_node);
  return handle.stream_->Read(cursor, out, max_entries);
}

Expected<Sample> Broker::LatestValue(TopicHandle& handle, NodeId to_node) {
  TRACE_SPAN("broker.latest", handle.name_);
  Status status = Refresh(handle);
  if (!status.ok()) return Error(status.code(), status.message());
  status = EvaluateFault(FaultSite::kFetch, handle.name_);
  if (!status.ok()) {
    GlobalTelemetry().fetch_timeouts.Inc();
    return Error(status.code(), status.message());
  }
  ChargeLatency(handle.home_, to_node);
  auto latest = handle.stream_->Latest();
  if (!latest.has_value()) {
    return Error(ErrorCode::kUnavailable, "topic empty: " + handle.name_);
  }
  return latest->value;
}

Expected<std::uint64_t> Broker::PublishWithRetry(TopicHandle& handle,
                                                 NodeId from_node,
                                                 TimeNs timestamp,
                                                 const Sample& sample,
                                                 const RetryPolicy& policy) {
  const TimeNs start = clock_.Now();
  auto result = Publish(handle, from_node, timestamp, sample);
  int attempt = 0;
  while (!result.ok() && RetryableError(result.error().code()) &&
         ++attempt < policy.max_attempts) {
    if (policy.deadline > 0 && clock_.Now() - start >= policy.deadline) break;
    GlobalTelemetry().publish_retries.Inc();
    clock_.Charge(JitteredBackoffForAttempt(policy, attempt));
    result = Publish(handle, from_node, timestamp, sample);
  }
  if (!result.ok()) {
    GlobalTelemetry().publish_failures.Inc();
  }
  return result;
}

Expected<std::size_t> Broker::FetchIntoWithRetry(
    TopicHandle& handle, NodeId to_node, std::uint64_t& cursor,
    std::vector<TelemetryStream::Entry>& out, std::size_t max_entries,
    const RetryPolicy& policy) {
  const TimeNs start = clock_.Now();
  auto result = FetchInto(handle, to_node, cursor, out, max_entries);
  int attempt = 0;
  while (!result.ok() && RetryableError(result.error().code()) &&
         ++attempt < policy.max_attempts) {
    if (policy.deadline > 0 && clock_.Now() - start >= policy.deadline) break;
    GlobalTelemetry().fetch_retries.Inc();
    clock_.Charge(JitteredBackoffForAttempt(policy, attempt));
    result = FetchInto(handle, to_node, cursor, out, max_entries);
  }
  if (!result.ok()) {
    GlobalTelemetry().fetch_failures.Inc();
  }
  return result;
}

Status Broker::ChargeHop(TopicHandle& handle, NodeId node) {
  Status status = Refresh(handle);
  if (!status.ok()) return status;
  ChargeLatency(handle.home_, node);
  return Status::Ok();
}

NodeId Broker::HomeNode(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? kLocalNode : it->second.info.home_node;
}

Status Broker::Refresh(TopicHandle& handle) {
  if (handle.version_ == version_.load(std::memory_order_acquire) &&
      handle.stream_ != nullptr) {
    return Status::Ok();
  }
  if (handle.name_.empty()) {
    return Status(ErrorCode::kInvalidArgument, "unresolved topic handle");
  }
  auto resolved = Resolve(handle.name_);
  if (!resolved.ok()) {
    handle.stream_ = nullptr;
    return resolved.status();
  }
  handle = std::move(resolved.value());
  return Status::Ok();
}

void Broker::NotifyPublish(const std::string& topic, std::size_t n) {
  PublishObserver* observer =
      publish_observer_.load(std::memory_order_acquire);
  if (observer != nullptr) observer->OnPublish(topic, n);
}

void Broker::ChargeLatency(NodeId a, NodeId b) {
  if (network_ == nullptr) return;
  const TimeNs latency = network_->Latency(a, b);
  if (latency > 0) clock_.Charge(latency);
}

Status Broker::EvaluateFault(FaultSite site, const std::string& topic) {
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  if (injector == nullptr) return Status::Ok();
  auto action = injector->Evaluate(site, topic);
  if (!action.has_value()) return Status::Ok();
  if (!action->fails()) {
    clock_.Charge(action->delay_ns);
    return Status::Ok();
  }
  return Status(ErrorCode::kUnavailable,
                std::string("injected ") + FaultSiteName(site) +
                    " fault: " + topic);
}

}  // namespace apollo
