// Process-wide metrics registry: named + labeled counters, gauges, and
// log-bucketed histograms, with Prometheus-style text exposition.
//
// Hot-path contract: a call site resolves its metric ONCE (at deploy/plan
// time, or in a function-local static) into a Counter/Gauge/Histogram
// handle — a bare pointer into registry-owned storage, the same caching
// idiom TopicHandle uses for broker lookups. Every subsequent update is a
// relaxed atomic on that cell: no locks, no map lookups, no allocation.
// The registry mutex is taken only at registration and exposition time.
//
// Cells live in a std::deque so registration never invalidates handles;
// registering the same (name, labels) pair twice returns the same cell,
// so independent call sites (and the TelemetryCounters façade) can share
// a metric without coordinating.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace apollo::obs {

// Label set attached to a metric instance ({key, value} pairs). Order is
// preserved in the exposition output; two label sets are the same instance
// only when they serialize identically.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

namespace internal {

// One registered instance (metric name + one label set). The atomic cells
// are stable for the process lifetime.
struct MetricCell {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;

  // Counter / gauge storage. Gauges store the double's bit pattern so the
  // cell stays a plain atomic (no atomic<double> CAS loops on load/store).
  std::atomic<std::uint64_t> value{0};

  // Histogram storage: log2 buckets matching LatencyHistogram (bucket b
  // holds values in [2^b, 2^(b+1)), bucket 0 holds <= 1), plus running
  // count/sum and min/max maintained with relaxed CAS.
  static constexpr std::size_t kBuckets = 64;
  std::unique_ptr<std::array<std::atomic<std::uint64_t>, kBuckets>> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{0};  // valid only when count > 0
  std::atomic<std::int64_t> max{0};
};

}  // namespace internal

// Monotonic counter handle. Default-constructed handles are "unbound" and
// drop updates — convenient for optional instrumentation.
class Counter {
 public:
  Counter() = default;

  void Inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }

  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::MetricCell* cell) : cell_(cell) {}
  internal::MetricCell* cell_ = nullptr;
};

// Gauge handle: a settable double (latest value wins).
class Gauge {
 public:
  Gauge() = default;

  void Set(double v);
  void Add(double delta);  // CAS loop; fine for low-rate gauges
  double Value() const;

  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::MetricCell* cell) : cell_(cell) {}
  internal::MetricCell* cell_ = nullptr;
};

// Log-bucketed histogram handle (same bucketing as LatencyHistogram).
// Record() is a handful of relaxed atomics; Snapshot() materializes a
// LatencyHistogram for percentile queries and summaries.
class Histogram {
 public:
  Histogram() = default;

  void Record(std::int64_t value_ns);
  std::uint64_t Count() const;
  LatencyHistogram Snapshot() const;

  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::MetricCell* cell) : cell_(cell) {}
  internal::MetricCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration: returns a stable handle; the same (name, labels) pair
  // always resolves to the same cell. `help` is recorded on first
  // registration. Registering one name under two different kinds is a
  // programming error; the first kind wins and the mismatched handle is
  // unbound.
  Counter GetCounter(const std::string& name, const std::string& help = "",
                     const Labels& labels = {});
  Gauge GetGauge(const std::string& name, const std::string& help = "",
                 const Labels& labels = {});
  Histogram GetHistogram(const std::string& name,
                         const std::string& help = "",
                         const Labels& labels = {});

  // Prometheus text exposition format: one # HELP / # TYPE block per
  // family, histograms as cumulative _bucket{le=...} plus _sum/_count.
  std::string RenderPrometheus() const;

  std::size_t MetricCount() const;

  // Zeroes every registered cell (tests; exposition scrapes are
  // non-destructive).
  void ResetAllForTest();

  // Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  internal::MetricCell* FindOrCreate(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels, MetricKind kind);

  mutable std::mutex mu_;
  std::deque<internal::MetricCell> cells_;  // stable addresses
};

}  // namespace apollo::obs
