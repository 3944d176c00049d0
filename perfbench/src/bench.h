// Shared pieces of the end-to-end benchmark: seeded generation, timing
// summaries, the span log used by traced runs, the daemon-side stack the
// workloads build from public constructors, and the report every workload
// fills in.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "coldtier/cold_tier.h"
#include "net/client.h"
#include "net/daemon.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"

namespace perfbench {

using apollo::TimeNs;

// ---- command line ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every size (topics, history, pool) for the self-test.
  bool tiny = false;
  // Corrupts one received answer (or one acked count) before it is checked,
  // so the self-test can prove the reference-model check rejects it.
  bool corrupt = false;
  // Archive directories and the Chrome trace live under here.
  std::string work_dir = ".bench_build/work";
};

// ---- clocks and seeded generation ------------------------------------------

inline TimeNs NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001B3ull + stream);
  return rng.Next();
}

// FNV-1a over everything the generator produced; the same seed must give
// the same digest.
class Digest {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// Zipf(s) over [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ---- timing summaries ------------------------------------------------------

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

double Median(std::vector<double> values);

// A measured phase summarized over one-second windows (at least ten): the
// mean over windows of the completed-work rate (the phase's rate) and of
// the window p50. The host switches between fast and slow stretches that
// last seconds (kernel writeback of the WAL, neighbours' load); a median
// over windows flips between the two from run to run, a mean moves with
// the share of each. `all` is the whole phase.
struct Windowed {
  double rate = 0.0;
  double p50_us = 0.0;
  Summary all;
  int windows = 0;
  std::vector<double> window_rates;
  std::vector<double> window_p50s;
};

// Per-thread record of a phase's operations in fixed memory: one
// log-bucketed latency histogram (0.1% wide buckets) per window, so the
// benchmark's own memory does not grow with throughput and peak RSS
// measures the stack. Failed operations land in an overflow bucket that
// reads as +infinity, so they count as infinitely slow.
class OpLog {
 public:
  // Sizes the windows; call once the phase start is known. Without it only
  // the whole-phase histogram (Windowed::all) is kept.
  void Begin(TimeNs start, double seconds);
  // One finished operation: completion time, latency (+inf when it
  // failed) and the units of work it completed (samples, queries).
  void Add(TimeNs done, double us, std::uint32_t weight);
  void Merge(const OpLog& other);
  Windowed Summarize() const;

 private:
  static constexpr int kBuckets = 21000;  // 0.1 us .. ~130 s, then overflow
  static int Bucket(double us);
  static double BucketValue(int bucket);
  static Summary FromHistogram(const std::vector<std::uint32_t>& hist);

  TimeNs start_ = 0;
  double width_ns_ = 1e9;
  std::vector<std::vector<std::uint32_t>> window_hist_;
  std::vector<double> window_work_;
  std::vector<std::uint32_t> all_hist_ = std::vector<std::uint32_t>(
      kBuckets + 1, 0);
};

// ---- spans (traced runs only) ----------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  // shared by all spans of one request
  std::uint32_t parent = 0;   // index+1 of the parent in the same list; 0=root
  std::uint32_t tid = 0;      // recording thread (Chrome trace track)
  TimeNs start = 0;
  TimeNs end = 0;
};

// One log per recording thread; merged after the threads are joined.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid = 0) : tid_(tid) { spans_.reserve(4096); }
  // Opens a span and returns its handle for Close().
  std::uint32_t Open(const char* name, std::uint64_t request,
                     std::uint32_t parent = 0) {
    spans_.push_back(Span{name, request, parent, tid_, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void Close(std::uint32_t handle) { spans_[handle - 1].end = NowNs(); }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

// Appends `log` to `out`, rebasing its parent indices.
void MergeSpans(std::vector<Span>& out, std::vector<Span>& log);

// Writes `spans` as Chrome trace JSON (at most `max_events` of them).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json,
                      std::size_t max_events);

// Median duration of the spans named `name` (0 when none).
double MedianSpanNs(const std::vector<Span>& spans, const char* name);
double TotalSpanNs(const std::vector<Span>& spans, const char* name);
std::size_t CountSpans(const std::vector<Span>& spans, const char* name);

// ---- process counters ------------------------------------------------------

// Counting operator new (alloc_count.cc). Counting is off unless enabled,
// so untraced runs pay one relaxed load per allocation.
void SetAllocCounting(bool on);
std::uint64_t AllocCount();

// Thread placement: the daemon's loop thread owns the first CPU this
// process may use, and client thread i runs on one of the others, so the
// placement (and the run-to-run spread) does not depend on the scheduler.
// With a single allowed CPU nothing is pinned.
void PinClientThread(std::size_t client);
void UnpinThread();

// Process CPU time (user + system) in microseconds, and peak RSS in MiB.
double ProcessCpuUs();
double PeakRssMb();
// Hardware threads, CPU model and kernel, as one JSON object.
std::string HostFingerprintJson();
// CPU ticks of the whole host (all CPUs) from /proc/stat: the total, and
// the share the hypervisor took from this guest. Their deltas over a run
// give its steal share, which moves every wall-clock metric.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks HostCpuTicks();

// ---- the daemon-side stack -------------------------------------------------

struct StackConfig {
  std::vector<std::string> topics;
  std::size_t ring_capacity = 4096;
  bool durable = false;  // one WAL archiver per topic under `dir`
  bool cold = false;     // one cold tier per archiver
  std::string dir;
  apollo::WalConfig wal;  // default FsyncPolicy::kNever
};

// Broker, archivers, cold tiers, executor and (optionally) the loopback
// daemon, built from their public constructors. Members are declared so
// that destruction runs daemon -> executor -> broker (whose streams flush
// evictions into the archivers) -> archivers -> cold tiers.
class Stack {
 public:
  explicit Stack(StackConfig config);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  apollo::Status StartDaemon();
  void StopDaemon();
  std::uint16_t port() const { return daemon_ ? daemon_->port() : 0; }

  apollo::Broker& broker() { return *broker_; }
  apollo::aqe::Executor& executor() { return *executor_; }
  apollo::TelemetryStream* stream(std::size_t topic) { return streams_[topic]; }
  apollo::Archiver<apollo::Sample>* archiver(std::size_t topic) {
    return archivers_.empty() ? nullptr : archivers_[topic].get();
  }
  apollo::coldtier::ColdTier* cold(std::size_t topic) {
    return colds_.empty() ? nullptr : colds_[topic].get();
  }
  const StackConfig& config() const { return config_; }
  std::size_t size() const { return streams_.size(); }

  // Publishes one run in-process (set-up prefill and history builds).
  void Append(std::size_t topic,
              const std::vector<apollo::TelemetryStream::Entry>& entries);
  // Drains staged evictions of every stream into its archiver.
  void FlushAll();
  // Bytes of every file under the archive directory.
  std::uint64_t DiskBytes() const;

 private:
  StackConfig config_;
  std::vector<std::unique_ptr<apollo::coldtier::ColdTier>> colds_;
  std::vector<std::unique_ptr<apollo::Archiver<apollo::Sample>>> archivers_;
  std::unique_ptr<apollo::Broker> broker_;
  std::unique_ptr<apollo::aqe::Executor> executor_;
  std::unique_ptr<apollo::net::ApolloDaemon> daemon_;
  std::vector<apollo::TelemetryStream*> streams_;
  std::vector<apollo::TopicHandle> handles_;
};

apollo::net::ClientConfig MakeClientConfig(std::uint16_t port,
                                           const std::string& name);

// ---- reports ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // sample count, base of a ratio, or what it maps to
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;    // emitted with --trace 0
  std::vector<Metric> layer;  // emitted with --trace 1
  std::vector<Metric> info;   // printed only (workload-specific names)
  std::vector<std::string> lines;  // free-form report lines
  std::vector<Span> spans;         // Chrome trace (traced runs)
  std::string first_mismatch;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (first_mismatch.empty()) first_mismatch = what;
  }
};

std::string Fmt(double v, int digits = 3);
std::string CountNote(const Summary& s);
// Adds `<prefix>_p50_us` / `_p99_us` info metrics for a latency sample set.
void AddLatencyInfo(Report& report, const std::string& prefix,
                    const Summary& s);

// Set-up repetitions whose median is setup_s (`n`, or 1 for --tiny). The
// first set-up is timed from process start.
inline int SetupRepeats(const Options& opt, int n) { return opt.tiny ? 1 : n; }
TimeNs ProcessStartNs();

// Releases every thread of a phase at once and records when.
struct StartGate {
  std::atomic<bool> go{false};
  TimeNs start = 0;
  void Wait() const {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void Open() {
    start = NowNs();
    go.store(true, std::memory_order_release);
  }
};

// Publish-request codec stages as the daemon runs them, for the replay:
// client-side encode into a frame, daemon-side reassembly and decode.
std::vector<std::uint8_t> EncodeBatchFrame(
    const apollo::net::PublishBatchMsg& msg);
bool DecodeBatchFrame(const std::vector<std::uint8_t>& wire,
                      apollo::net::PublishBatchMsg& msg);
// Runs a decoded batch through Broker::PublishBatch exactly as the
// daemon's kPublishBatch handler does; returns the samples rejected.
std::size_t PublishDecoded(apollo::Broker& broker,
                           const apollo::net::PublishBatchMsg& msg,
                           apollo::net::PublishBatchAckMsg& ack);
// Ack encode + frame + decode (the reply half of a publish).
void AckRoundTripCodec(const apollo::net::PublishBatchAckMsg& ack);

// Fills in the end-to-end metrics every workload reports: throughput of
// its primary operation and the latency its users wait on.
void AddEndToEnd(Report& report, const std::vector<double>& setup_s,
                 const Windowed& ops, const std::string& ops_name,
                 const Windowed& latency, const std::string& latency_name);

// Every per-layer metric name, in BENCHMARK.json order; a traced run emits
// each one, 0 where the workload bypasses the layer.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

// Per-layer values of one traced run, emitted in canonical order.
class LayerValues {
 public:
  void Set(const std::string& name, double value, std::string note = "");
  void EmitInto(Report& report) const;

 private:
  std::vector<Metric> values_;
};

// Adds the traced-run RTT breakdown line: each stage's median next to the
// RTT median, and what is left (the loop residual). Returns the residual
// in microseconds.
double AddStageLine(Report& report, const std::string& op, double rtt_ns,
                    const std::vector<Span>& replay,
                    const std::vector<const char*>& stages);

// ---- one-shot queries: reference answers and the traced replay -------------

// Query classes of the query and monitor mixes (aqe.execute_ns.<class>).
enum QueryClass {
  kLatestUnion,
  kIndexAgg,
  kWindowScan,
  kTimeRange,
  kHistoryAgg,
  kHistoryRange,
  kQueryClasses
};
const char* QueryClassName(int cls);

// Expected rows of a one-shot answer: (source, values) in order. The
// reference model computes them from its own per-topic vectors.
struct ExpectedRow {
  std::string source;
  std::vector<double> values;
};

// Exact comparison of an answer against the model (NaN equals NaN).
bool SameAnswer(const apollo::aqe::ResultSet& got,
                const std::vector<ExpectedRow>& want, std::string* why);

// Drives recorded query texts through the layers on the twin stack, one
// span per stage call, and turns the spans into per-layer metrics.
class QueryReplay {
 public:
  QueryReplay(apollo::aqe::Executor& executor, SpanLog& log);
  // Replays one request: query codec, Executor::Execute, result encode and
  // decode (the stages the RTT breakdown sums), then Parse and
  // Explain(analyze) for the parse cost and the scan/strategy counts.
  void Run(const std::string& text, int cls, std::uint64_t request);
  // Sets the net.* / aqe.* query metrics and prints the RTT breakdown.
  void Emit(LayerValues& layers, Report& report, double rtt_ns);

 private:
  apollo::aqe::Executor& executor_;
  SpanLog& log_;
  apollo::obs::Counter cache_hits_;
  std::uint64_t queries_ = 0, hits_ = 0, rows_ = 0, reply_bytes_ = 0;
  std::uint64_t rows_scanned_ = 0, branches_ = 0, index_branches_ = 0;
  double class_ns_[kQueryClasses] = {};
  std::uint64_t class_n_[kQueryClasses] = {};
};

// Drives recorded publish batches through the layers on the twin stack.
class PublishReplay {
 public:
  explicit PublishReplay(Stack& twin, SpanLog& log);
  // Replays one batch: encode + frame, reassembly + decode,
  // Broker::PublishBatch with the archivers attached (so the eviction flush
  // into the WAL is inside it), ack codec. The same batch then goes
  // through Broker::PublishBatch on full in-memory rings without archivers;
  // the difference, per evicted record, is the WAL-append cost. Returns
  // false when a stage failed.
  bool Run(const apollo::net::PublishBatchMsg& msg,
           const std::vector<std::size_t>& topics, std::uint64_t request);
  // Sets the net.* / pubsub.* publish metrics and prints the RTT breakdown.
  void Emit(LayerValues& layers, Report& report, double rtt_ns,
            std::size_t traced_batches);

 private:
  Stack& twin_;
  Stack memory_;  // same topics and rings, no archivers
  SpanLog& log_;
  apollo::net::PublishBatchMsg decoded_;
  std::uint64_t samples_ = 0, frame_bytes_ = 0, evicted_ = 0;
};

Report RunIngest(const Options& opt);
Report RunQuery(const Options& opt);
Report RunMonitor(const Options& opt);

}  // namespace perfbench
