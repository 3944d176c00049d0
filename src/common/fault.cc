#include "common/fault.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

namespace apollo {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kPublish:
      return "publish";
    case FaultSite::kFetch:
      return "fetch";
    case FaultSite::kArchiveWrite:
      return "archive_write";
    case FaultSite::kVertexPoll:
      return "vertex_poll";
    case FaultSite::kVertexStall:
      return "vertex_stall";
    case FaultSite::kArchiveFsync:
      return "archive_fsync";
    case FaultSite::kNetSend:
      return "net_send";
    case FaultSite::kNetRecv:
      return "net_recv";
    case FaultSite::kConnDrop:
      return "conn_drop";
    case FaultSite::kBatchDecode:
      return "batch_decode";
    case FaultSite::kHeartbeatLoss:
      return "heartbeat_loss";
    case FaultSite::kReplicaLag:
      return "replica_lag";
    case FaultSite::kCompactWrite:
      return "compact_write";
    case FaultSite::kBlockRead:
      return "block_read";
  }
  return "unknown";
}

void FaultInjector::Arm(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = Index(spec.site);
  armed_[idx].push_back(Armed{std::move(spec)});
  site_armed_[idx].store(true, std::memory_order_release);
}

void FaultInjector::Disarm(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = Index(site);
  armed_[idx].clear();
  site_armed_[idx].store(false, std::memory_order_release);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    armed_[i].clear();
    hits_[i] = 0;
    fires_[i] = 0;
    site_armed_[i].store(false, std::memory_order_release);
  }
}

std::optional<FaultAction> FaultInjector::Evaluate(FaultSite site,
                                                   std::string_view topic) {
  const std::size_t idx = Index(site);
  if (!site_armed_[idx].load(std::memory_order_acquire)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<FaultAction> action;
  for (Armed& armed : armed_[idx]) {
    const FaultSpec& spec = armed.spec;
    if (!spec.topic.empty() && spec.topic != topic) continue;
    const std::uint64_t hit = armed.hits++;
    ++hits_[idx];
    if (armed.fires >= spec.max_fires) continue;
    const bool scripted =
        std::find(spec.fire_on_hits.begin(), spec.fire_on_hits.end(), hit) !=
        spec.fire_on_hits.end();
    const bool random = spec.probability > 0.0 && rng_.Bernoulli(spec.probability);
    if (!scripted && !random) continue;
    ++armed.fires;
    ++fires_[idx];
    if (!action.has_value()) action = FaultAction{spec.delay_ns};
  }
  return action;
}

std::uint64_t FaultInjector::Hits(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_[Index(site)];
}

std::uint64_t FaultInjector::Fires(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fires_[Index(site)];
}

TimeNs BackoffForAttempt(const RetryPolicy& policy, int attempt) {
  if (attempt < 1) attempt = 1;
  double backoff = static_cast<double>(policy.initial_backoff) *
                   std::pow(policy.multiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff));
  return static_cast<TimeNs>(backoff);
}

TimeNs JitteredBackoffForAttempt(const RetryPolicy& policy, int attempt) {
  const TimeNs ceiling = BackoffForAttempt(policy, attempt);
  if (ceiling <= 0) return ceiling;
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter == 0.0) return ceiling;
  // Seed each thread from its id so concurrent retriers draw independent
  // sequences without locking (determinism across runs is not a goal
  // here: jitter exists precisely to decorrelate).
  thread_local Rng rng(
      0x6A177E12ULL ^
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const double lo = static_cast<double>(ceiling) * (1.0 - jitter);
  const double span = static_cast<double>(ceiling) - lo;
  const TimeNs wait = static_cast<TimeNs>(lo + rng.NextDouble() * span);
  return std::max<TimeNs>(wait, 1);
}

bool RetryableError(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kIoError ||
         code == ErrorCode::kResourceExhausted;
}

}  // namespace apollo
