// Observability layer tests: metrics registry semantics, the
// TelemetryCounters facade's snapshot completeness, LatencyHistogram
// percentile/merge edge cases, and span tracing (Chrome trace JSON export
// verified through a real JSON parser, deterministic under SimClock, and a
// multithreaded recording stress leg named ObsStress* so the tsan preset
// picks it up).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo {
namespace {

// --- minimal JSON parser (only what the trace golden test needs) ---

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = object.find(key);
    return it == object.end() ? kNullValue : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue& out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ParseValue(JsonValue& out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      std::string key;
      SkipWs();
      if (!ParseString(key)) return false;
      if (!Eat(':')) return false;
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      if (Eat(',')) continue;
      return Eat('}');
    }
  }
  bool ParseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
  bool ParseString(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            const unsigned code =
                std::stoul(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);  // tests only emit ASCII escapes
            break;
          }
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    out.number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- metrics registry ---

TEST(MetricsRegistry, CounterSameNameSharesCell) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.GetCounter("requests_total", "help");
  obs::Counter b = registry.GetCounter("requests_total");
  a.Inc();
  b.Inc(4);
  EXPECT_EQ(a.Value(), 5u);
  EXPECT_EQ(b.Value(), 5u);
  EXPECT_EQ(registry.MetricCount(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishInstances) {
  obs::MetricsRegistry registry;
  obs::Counter a =
      registry.GetCounter("rpc_total", "", {{"method", "publish"}});
  obs::Counter b = registry.GetCounter("rpc_total", "", {{"method", "fetch"}});
  a.Inc(2);
  b.Inc(3);
  EXPECT_EQ(a.Value(), 2u);
  EXPECT_EQ(b.Value(), 3u);
  EXPECT_EQ(registry.MetricCount(), 2u);
}

TEST(MetricsRegistry, KindMismatchReturnsUnboundHandle) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("dual_use");
  EXPECT_TRUE(counter.bound());
  obs::Gauge gauge = registry.GetGauge("dual_use");
  EXPECT_FALSE(gauge.bound());
  gauge.Set(7.0);  // dropped, not crashed
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(MetricsRegistry, UnboundHandlesNoOp) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  counter.Inc();
  gauge.Set(1.0);
  histogram.Record(10);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
}

TEST(MetricsRegistry, GaugeStoresDoubles) {
  obs::MetricsRegistry registry;
  obs::Gauge gauge = registry.GetGauge("temperature", "degrees");
  gauge.Set(36.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 36.5);
  gauge.Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 36.0);
  gauge.Set(-273.15);
  EXPECT_DOUBLE_EQ(gauge.Value(), -273.15);
}

TEST(MetricsRegistry, HistogramSnapshotMatchesLatencyHistogram) {
  obs::MetricsRegistry registry;
  obs::Histogram histogram = registry.GetHistogram("lat_ns");
  LatencyHistogram reference;
  for (std::int64_t v : {1, 3, 17, 1000, 250000, 7}) {
    histogram.Record(v);
    reference.Record(v);
  }
  LatencyHistogram snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.Count(), reference.Count());
  EXPECT_EQ(snapshot.MinNs(), reference.MinNs());
  EXPECT_EQ(snapshot.MaxNs(), reference.MaxNs());
  EXPECT_DOUBLE_EQ(snapshot.MeanNs(), reference.MeanNs());
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(snapshot.PercentileNs(p), reference.PercentileNs(p)) << p;
  }
}

TEST(MetricsRegistry, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("events_total", "Things that happened").Inc(3);
  registry.GetGauge("level", "Current level").Set(1.5);
  registry.GetCounter("tagged_total", "", {{"kind", "a\"b"}}).Inc();
  obs::Histogram histogram = registry.GetHistogram("dur_ns", "Durations");
  histogram.Record(1);
  histogram.Record(3);  // bucket le="3"
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP events_total Things that happened"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(text.find("events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE level gauge"), std::string::npos);
  EXPECT_NE(text.find("level 1.5"), std::string::npos);
  EXPECT_NE(text.find("tagged_total{kind=\"a\\\"b\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dur_ns histogram"), std::string::npos);
  // Cumulative buckets: the value 1 lands in le="1"; both samples are
  // <= 3, and +Inf always carries the full count.
  EXPECT_NE(text.find("dur_ns_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_bucket{le=\"3\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_sum 4"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_count 2"), std::string::npos);
}

TEST(MetricsRegistry, ResetAllZeroes) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("c");
  obs::Histogram histogram = registry.GetHistogram("h");
  counter.Inc(9);
  histogram.Record(500);
  registry.ResetAllForTest();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
  // Min/max state must also reset: a fresh sample re-seeds the minimum.
  histogram.Record(123);
  EXPECT_EQ(histogram.Snapshot().MinNs(), 123);
}

// --- TelemetryCounters facade: snapshot completeness ---

// Every field the facade exposes must be registered (distinct metric
// cells), writable through the handle, and covered by Reset(). The fields()
// walk makes "added a counter, forgot Reset()" structurally impossible, and
// this test pins the contract.
TEST(TelemetryCounters, SnapshotCompleteness) {
  TelemetryCounters& telemetry = GlobalTelemetry();
  telemetry.Reset();

  const auto& fields = telemetry.fields();
  ASSERT_GE(fields.size(), 26u);  // the original 25 + stream_evictions

  // Field names are unique and every handle is bound to its own cell.
  std::set<std::string> names;
  for (const auto& [name, counter] : fields) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate field " << name;
    EXPECT_TRUE(counter.bound()) << name;
  }

  // Bump every field by a distinct amount from zero, then check each one
  // reads back exactly its own amount: two fields sharing a cell would
  // read the sum (facade handles alias registry cells).
  std::uint64_t next = 1;
  for (auto [name, counter] : fields) counter.Inc(next++);
  EXPECT_EQ(telemetry.publishes.Value(), 1u);  // first declared field
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(fields[i].second.Value(), i + 1) << fields[i].first;
  }

  // Reset() must cover every field.
  telemetry.Reset();
  for (const auto& [name, counter] : fields) {
    EXPECT_EQ(counter.Value(), 0u) << "Reset() missed " << name;
  }
  EXPECT_EQ(telemetry.publishes.Value(), 0u);
  EXPECT_EQ(telemetry.stream_evictions.Value(), 0u);
}

TEST(TelemetryCounters, FacadeAliasesPrometheusExposition) {
  TelemetryCounters& telemetry = GlobalTelemetry();
  telemetry.Reset();
  telemetry.publishes.Inc(42);
  const std::string text =
      obs::MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(text.find("apollo_publishes_total 42"), std::string::npos);
  telemetry.Reset();
}

// --- LatencyHistogram edge cases ---

TEST(LatencyHistogramEdge, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MinNs(), 0);
  EXPECT_EQ(h.MaxNs(), 0);
  EXPECT_EQ(h.PercentileNs(0), 0);
  EXPECT_EQ(h.PercentileNs(50), 0);
  EXPECT_EQ(h.PercentileNs(100), 0);
}

TEST(LatencyHistogramEdge, SingleSample) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.MinNs(), 1000);
  EXPECT_EQ(h.MaxNs(), 1000);
  EXPECT_EQ(h.PercentileNs(0), 1000);  // p=0 is the exact minimum
  // Other ranks resolve to the lower bound of the sample's bucket
  // (512 <= 1000 < 1024).
  EXPECT_EQ(h.PercentileNs(50), 512);
  EXPECT_EQ(h.PercentileNs(100), 512);
}

TEST(LatencyHistogramEdge, PercentileZeroReturnsExactMin) {
  LatencyHistogram h;
  h.Record(5);
  h.Record(1000000);
  // Bucket lower bound would be 4; p=0 must report the true minimum.
  EXPECT_EQ(h.PercentileNs(0), 5);
  EXPECT_EQ(h.PercentileNs(-10), 5);  // clamped
}

TEST(LatencyHistogramEdge, PercentileHundredCoversMax) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  // p=100's bucket holds the max sample; above 100 clamps.
  EXPECT_EQ(h.PercentileNs(100), 64);  // 64 <= 100 < 128
  EXPECT_EQ(h.PercentileNs(1000), h.PercentileNs(100));
  EXPECT_LE(h.PercentileNs(100), h.MaxNs());
}

TEST(LatencyHistogramEdge, MergeDisjointRanges) {
  LatencyHistogram low;
  for (std::int64_t v : {2, 3, 5, 7}) low.Record(v);
  LatencyHistogram high;
  for (std::int64_t v : {1 << 20, 1 << 21}) high.Record(v);

  LatencyHistogram merged = low;
  merged.Merge(high);
  EXPECT_EQ(merged.Count(), 6u);
  EXPECT_EQ(merged.MinNs(), 2);
  EXPECT_EQ(merged.MaxNs(), 1 << 21);
  EXPECT_EQ(merged.PercentileNs(0), 2);
  // The two high samples sit above the 4 low ones: p=99 lands in the top
  // bucket range.
  EXPECT_GE(merged.PercentileNs(99), 1 << 20);

  // Merge order must not matter for the stats.
  LatencyHistogram reversed = high;
  reversed.Merge(low);
  EXPECT_EQ(reversed.Count(), merged.Count());
  EXPECT_EQ(reversed.MinNs(), merged.MinNs());
  EXPECT_EQ(reversed.MaxNs(), merged.MaxNs());
}

TEST(LatencyHistogramEdge, MergeWithEmpty) {
  LatencyHistogram h;
  h.Record(10);
  LatencyHistogram empty;
  h.Merge(empty);  // no-op
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.MinNs(), 10);
  empty.Merge(h);  // empty adopts h's stats
  EXPECT_EQ(empty.Count(), 1u);
  EXPECT_EQ(empty.MinNs(), 10);
  EXPECT_EQ(empty.MaxNs(), 10);
}

TEST(LatencyHistogramEdge, FromBucketsRoundTrip) {
  std::uint64_t buckets[64] = {0};
  buckets[0] = 2;   // two samples <= 1
  buckets[10] = 1;  // one sample in [1024, 2048)
  LatencyHistogram h = LatencyHistogram::FromBuckets(
      buckets, 64, /*sum_ns=*/1502, /*min_ns=*/1, /*max_ns=*/1500);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.MinNs(), 1);
  EXPECT_EQ(h.MaxNs(), 1500);
  EXPECT_EQ(h.PercentileNs(100), 1024);

  LatencyHistogram empty = LatencyHistogram::FromBuckets(
      buckets, 0, /*sum_ns=*/99, /*min_ns=*/INT64_MAX, /*max_ns=*/0);
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.MinNs(), 0);
}

// --- span tracing ---

class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().SetClock(nullptr);
    obs::TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  const std::uint64_t before = obs::TraceRecorder::Global().TotalRecorded();
  {
    TRACE_SPAN("noop");
  }
  EXPECT_EQ(obs::TraceRecorder::Global().TotalRecorded(), before);
}

TEST_F(TraceTest, SimClockSpansAreDeterministic) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock(Seconds(100));
  recorder.SetClock(&clock);
  recorder.Enable();
  {
    obs::TraceSpan outer("outer", "topic-a");
    clock.AdvanceBy(Millis(10));
    {
      obs::TraceSpan inner("inner");
      clock.AdvanceBy(Millis(5));
    }
    clock.AdvanceBy(Millis(1));
  }
  recorder.Disable();
  ASSERT_EQ(recorder.SpanCount(), 2u);

  JsonValue root;
  const std::string json = recorder.ExportChromeTrace();
  ASSERT_TRUE(JsonParser(json).Parse(root)) << json;
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 2u);

  // Events are sorted by start time: outer first.
  const JsonValue& outer = events.array[0];
  const JsonValue& inner = events.array[1];
  EXPECT_EQ(outer.at("name").str, "outer");
  EXPECT_EQ(outer.at("ph").str, "X");
  EXPECT_EQ(outer.at("cat").str, "apollo");
  EXPECT_EQ(inner.at("name").str, "inner");

  // Virtual-clock determinism: exact microsecond values, not wall time.
  EXPECT_DOUBLE_EQ(outer.at("ts").number, 100e6);         // t=100s in us
  EXPECT_DOUBLE_EQ(outer.at("dur").number, 16e3);         // 16ms
  EXPECT_DOUBLE_EQ(inner.at("ts").number, 100e6 + 10e3);  // +10ms
  EXPECT_DOUBLE_EQ(inner.at("dur").number, 5e3);          // 5ms

  // Nesting: inner is contained in outer on the same tid, one level down.
  EXPECT_EQ(outer.at("tid").number, inner.at("tid").number);
  EXPECT_LE(outer.at("ts").number, inner.at("ts").number);
  EXPECT_GE(outer.at("ts").number + outer.at("dur").number,
            inner.at("ts").number + inner.at("dur").number);
  EXPECT_DOUBLE_EQ(outer.at("args").at("depth").number, 0.0);
  EXPECT_DOUBLE_EQ(inner.at("args").at("depth").number, 1.0);
  EXPECT_EQ(outer.at("args").at("detail").str, "topic-a");
}

TEST_F(TraceTest, ExportEscapesAndTruncatesDetail) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock;
  recorder.SetClock(&clock);
  recorder.Enable();
  const std::string long_detail(100, 'x');
  {
    obs::TraceSpan span("quoted", "say \"hi\"\n");
  }
  {
    obs::TraceSpan span("long", long_detail);
  }
  recorder.Disable();
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("args").at("detail").str, "say \"hi\"\n");
  // Details are truncated into the fixed span slot, never dropped.
  const std::string& truncated = events[1].at("args").at("detail").str;
  EXPECT_EQ(truncated.size(), obs::SpanRecord::kDetailCapacity - 1);
  EXPECT_EQ(truncated, long_detail.substr(0, truncated.size()));
}

TEST_F(TraceTest, RingOverwritesOldestSpans) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock;
  recorder.SetClock(&clock);
  recorder.Enable();
  const std::size_t n = obs::TraceRecorder::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    obs::TraceSpan span("spin");
    clock.AdvanceBy(1);
  }
  recorder.Disable();
  EXPECT_EQ(recorder.SpanCount(), obs::TraceRecorder::kRingCapacity);
  EXPECT_GE(recorder.TotalRecorded(), n);
  // The retained window is the newest spans; the oldest 100 are gone.
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), obs::TraceRecorder::kRingCapacity);
  double prev_ts = -1;
  for (const JsonValue& event : events) {
    EXPECT_GE(event.at("ts").number, prev_ts);  // sorted by start
    prev_ts = event.at("ts").number;
  }
}

// Multithreaded span recording under the tsan preset (name matches the
// Stress filter): concurrent recorders on distinct rings while an exporter
// repeatedly snapshots them.
TEST(ObsStressTest, ConcurrentSpanRecordingAndExport) {
  auto& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  std::atomic<bool> stop{false};

  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = recorder.ExportChromeTrace();
      ASSERT_FALSE(json.empty());
      (void)recorder.SpanCount();
    }
  });

  std::vector<std::thread> workers;
  const std::uint64_t before = recorder.TotalRecorded();
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN("stress.outer", "w");
        TRACE_SPAN("stress.inner");
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  exporter.join();
  recorder.Disable();

  EXPECT_EQ(recorder.TotalRecorded() - before,
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread * 2);
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  EXPECT_GT(root.at("traceEvents").array.size(), 0u);
  recorder.Clear();
}

// Concurrent counter bumps land exactly (relaxed atomics, one cell).
TEST(ObsStressTest, ConcurrentCounterIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("stress_total");
  obs::Histogram histogram = registry.GetHistogram("stress_ns");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &counter, &histogram] {
      // Half the threads re-resolve their handle mid-flight, racing
      // registration against updates.
      obs::Counter local = registry.GetCounter("stress_total");
      for (int i = 0; i < kIncrements; ++i) {
        local.Inc();
        histogram.Record(i % 1024);
      }
      (void)counter;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(histogram.Count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace apollo
