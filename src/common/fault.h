// Fault injection + retry policy for Apollo's own fabric.
//
// Apollo reports storage health, so its monitoring fabric must stay correct
// while the cluster it observes is failing. The FaultInjector provides
// deterministic, seedable fault points at the fabric's loss surfaces
// (publish drop/delay, broker fetch timeout, archiver write failure, vertex
// poll crash/stall). Sites are evaluated only when an injector is attached;
// production paths pay one relaxed pointer load when none is.
//
// Faults fire either probabilistically (per-hit Bernoulli from a seeded
// generator) or on a scripted schedule (explicit hit indices), so chaos
// tests can be replayed exactly from a seed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/rng.h"

namespace apollo {

// Where in the fabric a fault can fire.
enum class FaultSite : std::uint8_t {
  kPublish = 0,    // broker publish: tuple drop, or added latency
  kFetch,          // broker fetch/latest: timeout, or added latency
  kArchiveWrite,   // archiver append: write failure
  kVertexPoll,     // vertex timer body: crash (timer dies, crash flagged)
  kVertexStall,    // vertex timer body: silent stall (timer dies, no flag)
  kArchiveFsync,   // archiver segment fsync: durability barrier failure
  kNetSend,        // wire frame send: failure, or added latency
  kNetRecv,        // wire frame receive/dispatch: drop, or added latency
  kConnDrop,       // connection: abrupt close before dispatching a frame
  kBatchDecode,    // daemon batch-publish decode: whole batch rejected
  kHeartbeatLoss,  // cluster probe round-trip: heartbeat dropped (the
                   // peer looks silent; drives suspect/dead transitions)
  kReplicaLag,     // daemon-to-daemon replicate: failure, or added
                   // latency (a slow replica delays quorum)
  kCompactWrite,   // cold-tier compaction: block write / rename /
                   // manifest commit failure (WAL stays authoritative)
  kBlockRead,      // cold-tier block read: block skipped, scan degrades
                   // to whatever the healthy blocks hold
};
inline constexpr std::size_t kNumFaultSites = 14;

const char* FaultSiteName(FaultSite site);

// One armed fault point. `probability` and `fire_on_hits` compose: the
// fault fires on every scripted hit index and, independently, on each hit
// with the given probability.
struct FaultSpec {
  FaultSite site = FaultSite::kPublish;
  // Restricts the fault to one topic/label; empty matches every hit.
  std::string topic;
  double probability = 0.0;
  // Scripted schedule: 0-based indices (per spec) of hits that must fire.
  std::vector<std::uint64_t> fire_on_hits;
  // Non-zero turns the fault into a delay (operation proceeds after the
  // clock is charged); zero makes it a hard failure.
  TimeNs delay_ns = 0;
  // Upper bound on total fires of this spec.
  std::uint64_t max_fires = UINT64_MAX;
};

struct FaultAction {
  TimeNs delay_ns = 0;  // 0 = hard failure, >0 = injected latency
  bool fails() const { return delay_ns == 0; }
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5eedfa17ULL) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(FaultSpec spec);
  // Removes every spec armed at `site`.
  void Disarm(FaultSite site);
  // Disarms all sites and zeroes counters (the seed is kept).
  void Reset();

  // Consulted by instrumented code at each fault point. Returns the action
  // to take, or nullopt to proceed normally. Thread-safe; deterministic for
  // a fixed seed and hit sequence.
  std::optional<FaultAction> Evaluate(FaultSite site, std::string_view topic);

  // Observability for tests: hits = evaluations that matched an armed spec,
  // fires = evaluations that produced an action.
  std::uint64_t Hits(FaultSite site) const;
  std::uint64_t Fires(FaultSite site) const;

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  static std::size_t Index(FaultSite site) {
    return static_cast<std::size_t>(site);
  }

  mutable std::mutex mu_;
  Rng rng_;
  std::array<std::vector<Armed>, kNumFaultSites> armed_;
  std::array<std::uint64_t, kNumFaultSites> hits_{};
  std::array<std::uint64_t, kNumFaultSites> fires_{};
  // Lock-free fast path: sites with nothing armed skip the mutex entirely.
  std::array<std::atomic<bool>, kNumFaultSites> site_armed_{};
};

// Retry-with-exponential-backoff policy for fallible fabric operations
// (broker publish/fetch, archiver flush). Backoff time is charged to the
// operation's clock, so simulated runs account for it in virtual time.
struct RetryPolicy {
  int max_attempts = 4;          // total attempts, including the first
  TimeNs initial_backoff = 100 * kNsPerUs;
  double multiplier = 2.0;
  TimeNs max_backoff = 10 * kNsPerMs;
  // Total time budget across attempts measured from the first attempt;
  // 0 disables the deadline.
  TimeNs deadline = 0;
  // Fraction of each backoff randomized away ("full jitter" at 1.0): the
  // actual wait is uniform in [backoff*(1-jitter), backoff]. Randomizing
  // the wait keeps N clients recovering from the same node death from
  // hammering it in lockstep on every retry round.
  double jitter = 1.0;
};

// Backoff before retry `attempt` (1-based: the wait after the first
// failure is BackoffForAttempt(policy, 1)). Deterministic ceiling —
// `policy.jitter` is NOT applied here (tests and deadline math rely on
// the exact exponential); use JitteredBackoffForAttempt on real sleeps.
TimeNs BackoffForAttempt(const RetryPolicy& policy, int attempt);

// BackoffForAttempt with `policy.jitter` applied: uniform in
// [ceiling*(1-jitter), ceiling], never below 1ns for a non-zero ceiling.
// Draws from a thread-local generator seeded per thread, so concurrent
// retriers decorrelate without sharing state.
TimeNs JitteredBackoffForAttempt(const RetryPolicy& policy, int attempt);

// Errors worth retrying: transient unavailability (injected drops and
// timeouts surface as kUnavailable, real I/O hiccups as kIoError).
bool RetryableError(ErrorCode code);

}  // namespace apollo
