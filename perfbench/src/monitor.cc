// monitor: reads beside writes on durable topics, over three connections.
//   - one open-loop publisher sends small batches (one sample per topic
//     run) at a fixed absolute rate; sample values encode their sequence
//     number;
//   - one connection holds a SUBSCRIBE SELECT LAST(metric) continuous
//     query per topic;
//   - one closed-loop client issues dashboard queries: unbounded
//     aggregates and timestamp BETWEEN ranges that reach the WAL and the
//     cold blocks.
// Set-up builds a history per topic and compacts its sealed WAL segments
// into cold blocks; rows appended during the run stay a small share of it.
// The only workload where appends, history reads, the cold tier and the CQ
// pump compete for the daemon's loop and the same stream locks.
#include <cstdio>
#include <limits>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cq/cq_engine.h"

namespace perfbench {
namespace {

namespace net = apollo::net;
using apollo::Sample;
using apollo::TelemetryStream;

constexpr TimeNs kBaseTs = 3'000'000'000'000;
constexpr TimeNs kTick = 4 * apollo::kNsPerMs;  // publisher batch interval
constexpr std::size_t kSamplesPerRun = 1;
constexpr std::size_t kRunsPerBatch = 4;

struct Shape {
  std::size_t topics;
  std::size_t ring;
  std::size_t history;  // rows per topic built at set-up
  std::size_t segment_bytes;
  std::size_t range_pool;
};

Shape ShapeFor(const Options& opt) {
  return opt.tiny ? Shape{4, 64, 2000, 4096, 16}
                  : Shape{64, 512, 8000, 64 << 10, 512};
}

// Sample `seq` of topic `t`: value seq, timestamps monotone per topic. The
// model of a topic is therefore its row count, and every aggregate over a
// seq range has a closed form.
TimeNs TsOf(std::size_t topic, std::uint64_t seq) {
  return kBaseTs + static_cast<TimeNs>(seq) * 1000 + static_cast<TimeNs>(topic);
}
TelemetryStream::Entry EntryOf(std::size_t topic, std::uint64_t seq) {
  TelemetryStream::Entry e;
  e.timestamp = TsOf(topic, seq);
  e.value = Sample{e.timestamp, static_cast<double>(seq),
                   apollo::Provenance::kMeasured};
  return e;
}
// COUNT, SUM, MIN, MAX of seqs [a, b].
std::vector<double> RangeCells(std::uint64_t a, std::uint64_t b) {
  const double n = static_cast<double>(b - a + 1);
  const double sum = (static_cast<double>(a) + static_cast<double>(b)) * n / 2;
  return {n, sum, static_cast<double>(a), static_cast<double>(b)};
}

// The publisher's schedule: tick i carries one sample for each of the
// topics [4i, 4i + 4) mod M.
class TickGen {
 public:
  TickGen(std::vector<std::string> names, std::size_t history)
      : names_(std::move(names)), seq_(names_.size(), history) {}
  void Next(net::PublishBatchMsg& msg, std::vector<std::size_t>& topics) {
    const std::size_t runs = std::min(kRunsPerBatch, names_.size());
    msg.runs.resize(runs);
    topics.resize(runs);
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t t = (tick_ * kRunsPerBatch + r) % names_.size();
      msg.runs[r].topic = names_[t];
      msg.runs[r].entries.clear();
      for (std::size_t i = 0; i < kSamplesPerRun; ++i) {
        msg.runs[r].entries.push_back(EntryOf(t, seq_[t]++));
      }
      topics[r] = t;
    }
    ++tick_;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::uint64_t> seq_;
  std::uint64_t tick_ = 0;
};

struct Dash {
  std::string text;
  std::string source;  // topic name, the answer row's source
  int cls = kHistoryAgg;
  std::size_t topic = 0;
  std::uint64_t a = 0, b = 0;  // seq range (history_range)
};

// Draws the next dashboard query: five in six unbounded aggregates, one in
// six ranges. The two classes cost about 3.5:1, so the median must lie well
// inside the aggregates' mode: with an even mix it sits on the gap between
// the modes, and with two thirds aggregates on their fast shoulder, and
// either way it jumps from run to run.
const Dash& DrawDash(Rng& rng, const std::vector<Dash>& aggs,
                     const std::vector<Dash>& ranges) {
  return rng.Below(6) != 0 ? aggs[rng.Below(aggs.size())]
                           : ranges[rng.Below(ranges.size())];
}

// Per-topic counters shared by the publisher (writer) and the dashboard
// and subscriber threads (readers).
struct Shared {
  explicit Shared(std::size_t topics, std::size_t max_samples)
      : sent(topics), acked(topics), due(topics) {
    for (auto& d : due) {
      d = std::make_unique<std::atomic<TimeNs>[]>(max_samples);
    }
    capacity = max_samples;
  }
  std::vector<std::atomic<std::uint64_t>> sent;   // published rows
  std::vector<std::atomic<std::uint64_t>> acked;  // acked rows
  // Due time of run sample k of each topic (k = seq - history).
  std::vector<std::unique_ptr<std::atomic<TimeNs>[]>> due;
  std::size_t capacity = 0;
};

struct Stats {
  OpLog query_log;
  // Whole phase only: CQ push lag (one entry per update reflecting a run
  // row), publish ack from due time, generator lateness.
  OpLog lag_log, ack_log, lateness_log;
  std::uint64_t samples = 0, batches = 0, queries = 0;
};

struct Rig {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Shared> shared;
  std::unique_ptr<net::ApolloClient> publisher, subscriber, dashboard;
  std::unordered_map<std::uint64_t, std::size_t> cq_topic;
  std::vector<std::uint64_t> last_seen;  // newest seq pushed per topic
  TickGen gen;
  Rng rng;
  SpanLog pub_log{1}, dash_log{3};
  apollo::coldtier::CompactResult compacted;
  double compact_s = 0.0;
};

// Builds the stack, the history and its cold blocks.
std::unique_ptr<Stack> BuildStack(const Shape& shape, const std::string& dir,
                                  apollo::coldtier::CompactResult* compacted,
                                  double* compact_s) {
  StackConfig config;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "mon.t%02zu", t);
    config.topics.push_back(buf);
  }
  config.ring_capacity = shape.ring;
  config.durable = true;
  config.cold = true;
  config.dir = dir;
  config.wal.segment_bytes = shape.segment_bytes;
  auto stack = std::make_unique<Stack>(config);
  std::vector<TelemetryStream::Entry> chunk;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    for (std::uint64_t s = 0; s < shape.history; s += chunk.size()) {
      chunk.clear();
      for (std::uint64_t i = s; i < std::min<std::uint64_t>(s + 1000,
                                                            shape.history);
           ++i) {
        chunk.push_back(EntryOf(t, i));
      }
      stack->Append(t, chunk);
    }
  }
  stack->FlushAll();
  const TimeNs c0 = NowNs();
  for (std::size_t t = 0; t < shape.topics; ++t) {
    auto result = stack->cold(t)->CompactOnce(*stack->archiver(t));
    if (!result.ok()) {
      std::fprintf(stderr, "compaction failed: %s\n",
                   result.error().ToString().c_str());
      std::exit(3);
    }
    compacted->rows_compacted += result->rows_compacted;
    compacted->raw_bytes += result->raw_bytes;
    compacted->block_bytes += result->block_bytes;
    compacted->blocks_written += result->blocks_written;
  }
  *compact_s = static_cast<double>(NowNs() - c0) / 1e9;
  return stack;
}

// Reads CQ pushes until `until` returns true or the timeout passes.
template <typename Until>
bool ReadPushes(Rig& rig, Stats& stats, std::size_t history, Until until,
                TimeNs timeout, Report& report) {
  const TimeNs deadline = NowNs() + timeout;
  while (!until()) {
    if (NowNs() >= deadline) return false;
    if (!rig.subscriber->WaitForCQUpdates(5 * apollo::kNsPerMs)) continue;
    const TimeNs now = NowNs();
    for (const net::CQUpdateMsg& u : rig.subscriber->TakeCQUpdates()) {
      auto it = rig.cq_topic.find(u.cq_id);
      if (it == rig.cq_topic.end() || u.result.rows.size() != 1 ||
          u.result.rows[0].values.size() != 1) {
        report.Fail("malformed CQ update");
        continue;
      }
      const std::size_t t = it->second;
      const auto seq = static_cast<std::uint64_t>(u.result.rows[0].values[0]);
      if (seq < rig.last_seen[t]) {
        report.Fail("CQ update went backwards on topic " + std::to_string(t));
      }
      rig.last_seen[t] = std::max(rig.last_seen[t], seq);
      if (seq >= history && seq - history < rig.shared->capacity) {
        // Pairs with the publisher's release increment after its due-time
        // stores.
        (void)rig.shared->sent[t].load(std::memory_order_acquire);
        const TimeNs due =
            rig.shared->due[t][seq - history].load(std::memory_order_relaxed);
        stats.lag_log.Add(now, static_cast<double>(now - due) / 1e3, 1);
      }
    }
  }
  return true;
}

// Waits until every CQ's newest push equals the model's last row.
void Settle(Rig& rig, Stats& stats, const Shape& shape, Report& report,
            bool corrupt) {
  auto caught_up = [&] {
    for (std::size_t t = 0; t < shape.topics; ++t) {
      const std::uint64_t want =
          shape.history + rig.shared->acked[t].load() - 1 +
          (corrupt && t == 0 ? 1 : 0);
      if (rig.last_seen[t] != want) return false;
    }
    return true;
  };
  report.attempted += shape.topics;
  if (!ReadPushes(rig, stats, shape.history, caught_up,
                  3 * apollo::kNsPerSec, report)) {
    report.Fail("a continuous query's final value differs from the model");
  }
}

// Runs one measured phase and returns its start time.
TimeNs RunPhase(Rig& rig, const Shape& shape, const std::vector<Dash>& aggs,
                const std::vector<Dash>& ranges, double seconds, bool traced,
                std::uint64_t phase, Stats& stats, Report& report,
                bool corrupt) {
  StartGate gate;
  std::atomic<bool> publishing{true};
  std::string pub_error, dash_error;
  std::uint64_t pub_failed = 0, dash_failed = 0;
  std::thread publisher([&] {
    PinClientThread(0);
    net::PublishBatchMsg msg;
    std::vector<std::size_t> topics;
    gate.Wait();
    const TimeNs end = gate.start + static_cast<TimeNs>(seconds * 1e9);
    for (std::uint64_t i = 0;; ++i) {
      const TimeNs due = gate.start + static_cast<TimeNs>(i) * kTick;
      if (due >= end) break;
      TimeNs now = NowNs();
      if (due - now > 200'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 150'000));
      }
      while ((now = NowNs()) < due) {
      }
      rig.gen.Next(msg, topics);
      for (std::size_t r = 0; r < topics.size(); ++r) {
        const std::size_t t = topics[r];
        for (const auto& e : msg.runs[r].entries) {
          const auto k = static_cast<std::uint64_t>(e.value.value) -
                         shape.history;
          if (k < rig.shared->capacity) {
            rig.shared->due[t][k].store(due, std::memory_order_relaxed);
          }
        }
        rig.shared->sent[t].fetch_add(msg.runs[r].entries.size(),
                                      std::memory_order_release);
      }
      stats.lateness_log.Add(now, static_cast<double>(now - due) / 1e3, 1);
      const std::uint64_t request = (1ull << 48) | (phase << 40) | i;
      const std::uint32_t span =
          traced ? rig.pub_log.Open("client.publish_batch", request) : 0;
      auto ack = rig.publisher->PublishBatch(msg);
      const TimeNs t1 = NowNs();
      if (traced) rig.pub_log.Close(span);
      ++stats.batches;
      if (ack.ok() && ack->error_count == 0 &&
          ack->count == msg.SampleCount()) {
        for (std::size_t r = 0; r < topics.size(); ++r) {
          rig.shared->acked[topics[r]].fetch_add(
              msg.runs[r].entries.size(), std::memory_order_release);
        }
        stats.samples += msg.SampleCount();
        stats.ack_log.Add(t1, static_cast<double>(t1 - due) / 1e3, 1);
      } else {
        ++pub_failed;
        stats.ack_log.Add(t1, std::numeric_limits<double>::infinity(), 0);
        if (pub_error.empty()) {
          pub_error = ack.ok() ? "rejected samples" : ack.error().ToString();
        }
      }
    }
    publishing.store(false, std::memory_order_release);
  });
  std::thread dashboard([&] {
    PinClientThread(1);
    gate.Wait();
    stats.query_log.Begin(gate.start, seconds);
    const TimeNs end = gate.start + static_cast<TimeNs>(seconds * 1e9);
    for (std::uint64_t i = 0; NowNs() < end; ++i) {
      const Dash& d = DrawDash(rig.rng, aggs, ranges);
      const std::uint64_t lo =
          shape.history + rig.shared->acked[d.topic].load(
                              std::memory_order_acquire);
      const std::uint64_t request = (3ull << 48) | (phase << 40) | i;
      const std::uint32_t span =
          traced ? rig.dash_log.Open("client.query", request) : 0;
      const TimeNs t0 = NowNs();
      auto reply = rig.dashboard->Query(d.text);
      const TimeNs t1 = NowNs();
      if (traced) rig.dash_log.Close(span);
      const std::uint64_t hi =
          shape.history + rig.shared->sent[d.topic].load(
                              std::memory_order_acquire);
      ++stats.queries;
      std::string why;
      bool ok = reply.ok();
      if (ok && corrupt && stats.queries == 50 &&
          !reply->result.rows.empty() &&
          reply->result.rows[0].values.size() > 1) {
        reply->result.rows[0].values[1] += 1.0;
      }
      if (ok && d.cls == kHistoryRange) {
        ok = SameAnswer(reply->result, {{d.source, RangeCells(d.a, d.b)}},
                        &why);
      } else if (ok) {
        // Unbounded aggregate while rows arrive: the answer must be the
        // model's prefix of some length n the daemon could have held.
        const auto& rows = reply->result.rows;
        const bool one_row = rows.size() == 1 && rows[0].values.size() == 4;
        const double n = one_row ? rows[0].values[0] : -1.0;
        ok = one_row && n >= static_cast<double>(lo) &&
             n <= static_cast<double>(hi) &&
             SameAnswer(reply->result,
                        {{d.source,
                          RangeCells(0, static_cast<std::uint64_t>(n) - 1)}},
                        &why);
        if (!ok && why.empty()) why = "row count outside [acked, sent]";
      }
      if (ok) {
        stats.query_log.Add(t1, static_cast<double>(t1 - t0) / 1e3, 1);
      } else {
        ++dash_failed;
        stats.query_log.Add(t1, std::numeric_limits<double>::infinity(), 0);
        if (dash_error.empty()) {
          dash_error = (reply.ok() ? why : reply.error().ToString()) +
                       " for '" + d.text + "'";
        }
      }
    }
  });
  std::thread subscriber([&] {
    PinClientThread(2);
    gate.Wait();
    (void)ReadPushes(
        rig, stats, shape.history,
        [&] { return !publishing.load(std::memory_order_acquire); },
        static_cast<TimeNs>((seconds + 10) * 1e9), report);
  });
  gate.Open();
  publisher.join();
  dashboard.join();
  subscriber.join();
  Settle(rig, stats, shape, report, corrupt);
  report.attempted += stats.batches + stats.queries;
  report.failed += pub_failed + dash_failed;
  if (pub_failed + dash_failed > 0) {
    report.correct = false;
    if (report.first_mismatch.empty()) {
      report.first_mismatch = pub_error.empty() ? dash_error : pub_error;
    }
  }
  return gate.start;
}

}  // namespace

Report RunMonitor(const Options& opt) {
  Report report;
  const Shape shape = ShapeFor(opt);
  const std::string dir = opt.work_dir + "/monitor";
  const std::size_t max_samples =
      static_cast<std::size_t>((opt.seconds + 2) * 1e9 / kTick) *
          kRunsPerBatch * kSamplesPerRun / shape.topics +
      64;

  // Dashboard pool: one unbounded aggregate per topic, and BETWEEN ranges
  // inside the history, whose answers never change.
  std::vector<Dash> aggs, ranges;
  std::vector<std::string> names;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "mon.t%02zu", t);
    names.push_back(buf);
    aggs.push_back({std::string("SELECT COUNT(*), SUM(metric), MIN(metric), "
                                "MAX(metric) FROM ") + buf,
                    buf, kHistoryAgg, t, 0, 0});
  }
  Rng pool_rng(MixSeed(opt.seed, 400));
  for (std::size_t i = 0; i < shape.range_pool; ++i) {
    Dash d;
    d.cls = kHistoryRange;
    d.topic = pool_rng.Below(shape.topics);
    d.source = names[d.topic];
    const std::uint64_t len = shape.history / 48 + pool_rng.Below(shape.history / 8);
    d.a = pool_rng.Below(shape.history - len);
    d.b = d.a + len - 1;
    d.text = "SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM " +
             names[d.topic] + " WHERE timestamp BETWEEN " +
             std::to_string(TsOf(d.topic, d.a)) + " AND " +
             std::to_string(TsOf(d.topic, d.b));
    ranges.push_back(std::move(d));
  }

  // ---- set-up, repeated; the last one is measured ----
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  Stats warm;
  for (int k = 0; k < SetupRepeats(opt, 5); ++k) {
    rig.reset();
    const TimeNs t0 = k == 0 ? ProcessStartNs() : NowNs();
    rig = std::make_unique<Rig>(Rig{nullptr, nullptr, nullptr, nullptr,
                                    nullptr, {}, {}, TickGen(names,
                                                             shape.history),
                                    Rng(MixSeed(opt.seed, 401)), SpanLog(1),
                                    SpanLog(3), {}, 0.0});
    rig->stack = BuildStack(shape, dir, &rig->compacted, &rig->compact_s);
    rig->shared = std::make_unique<Shared>(shape.topics, max_samples);
    rig->last_seen.assign(shape.topics, 0);
    if (!rig->stack->StartDaemon().ok()) {
      report.Fail("daemon failed to start");
      return report;
    }
    const std::uint16_t port = rig->stack->port();
    rig->publisher = std::make_unique<net::ApolloClient>(
        MakeClientConfig(port, "monitor-publisher"));
    rig->subscriber = std::make_unique<net::ApolloClient>(
        MakeClientConfig(port, "monitor-subscriber"));
    rig->dashboard = std::make_unique<net::ApolloClient>(
        MakeClientConfig(port, "monitor-dashboard"));
    if (!rig->publisher->Connect().ok() || !rig->subscriber->Connect().ok() ||
        !rig->dashboard->Connect().ok()) {
      report.Fail("client connect failed");
      return report;
    }
    for (std::size_t t = 0; t < shape.topics; ++t) {
      auto ack = rig->subscriber->CQRegister(
          "last." + names[t], "SUBSCRIBE SELECT LAST(metric) FROM " + names[t]);
      if (!ack.ok()) {
        report.Fail("CQ register failed: " + ack.error().ToString());
        return report;
      }
      rig->cq_topic[ack->cq_id] = t;
    }
    // Warm-up: every CQ's snapshot arrives and two dashboard reads run.
    Settle(*rig, warm, shape, report, false);
    for (const Dash* d : {&aggs[0], &ranges[0]}) {
      if (!rig->dashboard->Query(d->text).ok()) report.Fail("warm-up query");
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // ---- measured phases ----
  Stats a, b;
  TimeNs start_b = 0;
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  RunPhase(*rig, shape, aggs, ranges, untraced_seconds, false, 0, a, report,
           opt.corrupt);
  TickGen replay_gen = rig->gen;
  Rng replay_rng = rig->rng;
  if (opt.trace) {
    start_b = RunPhase(*rig, shape, aggs, ranges, opt.seconds / 2, true, 1, b,
                       report, false);
  }
  rig->publisher->Close();
  rig->subscriber->Close();
  rig->dashboard->Close();
  rig->stack->StopDaemon();

  // ---- acked rows are all in ring + WAL + cold ----
  std::uint64_t total_rows = 0;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    ++report.attempted;
    Stack& s = *rig->stack;
    s.stream(t)->FlushEvictions();
    const std::uint64_t want = shape.history + rig->shared->acked[t].load();
    const std::uint64_t have = s.stream(t)->Size() + s.archiver(t)->Count() +
                               s.cold(t)->ColdRowCount();
    total_rows += want;
    if (have != want) {
      report.Fail(names[t] + ": acked " + std::to_string(want) +
                  " rows but ring+wal+cold hold " + std::to_string(have));
    }
  }
  const std::uint64_t disk = rig->stack->DiskBytes();

  Digest digest;
  {
    TickGen gen(names, shape.history);
    net::PublishBatchMsg msg;
    std::vector<std::size_t> topics;
    for (int i = 0; i < 256; ++i) {
      gen.Next(msg, topics);
      for (const auto& run : msg.runs) {
        digest.Add(run.topic);
        for (const auto& e : run.entries) digest.AddValue(e.timestamp);
      }
    }
    for (const Dash& d : ranges) digest.Add(d.text);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest.value()));
  report.lines.push_back(std::string("input_digest=") + hex);
  const double rate = 1e9 / static_cast<double>(kTick) *
                      static_cast<double>(kRunsPerBatch * kSamplesPerRun);
  report.lines.push_back(
      "config topics=" + std::to_string(shape.topics) + " ring=" +
      std::to_string(shape.ring) + " history=" +
      std::to_string(shape.history) + " rows/topic (WAL segment " +
      std::to_string(shape.segment_bytes) + " B, sealed segments compacted)"
      "; publisher open-loop " + Fmt(rate, 0) + " samples/s in batches of " +
      std::to_string(kRunsPerBatch) + "x" + std::to_string(kSamplesPerRun) +
      " every " + Fmt(static_cast<double>(kTick) / 1e6, 1) +
      " ms; 1 CQ connection; 1 closed-loop dashboard; wal fsync_policy=kNever");
  const Windowed query = a.query_log.Summarize();
  const Windowed lag = a.lag_log.Summarize();
  AddEndToEnd(report, setup_s, query, "monitor: dashboard queries/s", query,
              "dashboard query round trip beside writes and CQ pushes");
  report.info.push_back({"queries_per_s", "1/s", query.rate,
                         "dashboard queries=" + std::to_string(a.queries)});
  AddLatencyInfo(report, "query", query.all);
  AddLatencyInfo(report, "publish_ack", a.ack_log.Summarize().all);
  report.info.back().note += " (open loop, from due time)";
  AddLatencyInfo(report, "cq_push_lag", lag.all);
  report.info.push_back({"ingest_samples_per_s", "1/s",
                         static_cast<double>(a.samples) / untraced_seconds,
                         "fixed open-loop rate"});
  report.info.push_back({"loadgen_lag_p99_us", "us",
                         a.lateness_log.Summarize().all.p99,
                         "generator lateness; tick is 4000 us"});
  report.info.push_back(
      {"disk_bytes_per_sample", "B",
       static_cast<double>(disk) / static_cast<double>(total_rows),
       "archive bytes=" + std::to_string(disk) + " / rows=" +
           std::to_string(total_rows)});

  if (!opt.trace) return report;

  // ---- traced run: replay publishes, dashboard queries and CQ pumps ----
  std::vector<Span> live;
  MergeSpans(live, rig->pub_log.spans());
  MergeSpans(live, rig->dash_log.spans());
  const apollo::coldtier::CompactResult compacted = rig->compacted;
  const double compact_s = rig->compact_s;
  rig.reset();
  std::sort(live.begin(), live.end(),
            [](const Span& x, const Span& y) { return x.start < y.start; });

  apollo::coldtier::CompactResult unused;
  double unused_s = 0.0;
  auto twin = BuildStack(shape, opt.work_dir + "/monitor_twin", &unused,
                         &unused_s);
  apollo::cq::CQEngine engine(twin->broker());
  twin->broker().AttachPublishObserver(&engine);
  for (std::size_t t = 0; t < shape.topics; ++t) {
    (void)engine.Register(1, "default", "last." + names[t],
                          "SUBSCRIBE SELECT LAST(metric) FROM " + names[t], 0,
                          0, NowNs());
  }
  SpanLog rlog(100);
  QueryReplay queries(twin->executor(), rlog);
  PublishReplay publishes(*twin, rlog);
  std::uint64_t updates = 0, pumps = 0, cq_samples = 0;
  auto emit = [&](const apollo::cq::CQInfo&, const apollo::cq::CQUpdate&) {
    ++updates;
    return true;
  };
  (void)engine.Pump(NowNs(), nullptr, emit);  // registration snapshots
  updates = 0;
  TimeNs next_tick = start_b;
  std::uint64_t wal_rows_read = 0, wal_rows_returned = 0;
  apollo::ColdScanStats cold_stats;
  net::PublishBatchMsg msg;
  std::vector<std::size_t> topics;
  for (const Span& root : live) {
    // The daemon pumps CQs every 2 ms; replay the pumps that fell between
    // the recorded requests.
    for (; next_tick <= root.start; next_tick += 2 * apollo::kNsPerMs) {
      const std::uint32_t s = rlog.Open("cq.pump", 0);
      (void)engine.Pump(NowNs(), nullptr, emit);
      rlog.Close(s);
      ++pumps;
    }
    if ((root.request >> 48) == 1) {
      replay_gen.Next(msg, topics);
      if (!publishes.Run(msg, topics, root.request)) {
        report.Fail("replay publish failed");
      }
      cq_samples += msg.SampleCount();
    } else {
      const Dash& d = DrawDash(replay_rng, aggs, ranges);
      queries.Run(d.text, d.cls, root.request);
      // The history tiers the executor merged, read on their own.
      const TimeNs from = d.cls == kHistoryRange
                              ? TsOf(d.topic, d.a)
                              : std::numeric_limits<TimeNs>::min();
      const TimeNs to = d.cls == kHistoryRange
                            ? TsOf(d.topic, d.b)
                            : std::numeric_limits<TimeNs>::max();
      std::uint32_t s = rlog.Open("pubsub.wal_read", root.request);
      auto rows = twin->archiver(d.topic)->ReadRange(from, to);
      rlog.Close(s);
      wal_rows_read += twin->archiver(d.topic)->Count();
      wal_rows_returned += rows.ok() ? rows->size() : 0;
      s = rlog.Open("coldtier.scan", root.request);
      (void)twin->cold(d.topic)->ScanRange(
          from, to, [](std::uint64_t, TimeNs, const Sample&) {}, &cold_stats);
      rlog.Close(s);
    }
  }
  twin->broker().AttachPublishObserver(nullptr);

  LayerValues layers;
  const std::vector<Span>& replay = rlog.spans();
  publishes.Emit(layers, report, MedianSpanNs(live, "client.publish_batch"),
                 CountSpans(live, "client.publish_batch"));
  layers.Set("pubsub.wal_read_ns_per_row_returned",
             TotalSpanNs(replay, "pubsub.wal_read") /
                 static_cast<double>(std::max<std::uint64_t>(
                     wal_rows_returned, 1)),
             "base: " + std::to_string(wal_rows_returned) + " rows returned");
  layers.Set("pubsub.wal_rows_read_per_row_returned",
             static_cast<double>(wal_rows_read) /
                 static_cast<double>(std::max<std::uint64_t>(
                     wal_rows_returned, 1)),
             "ReadRange scans every live segment");
  layers.Set("pubsub.disk_bytes_per_sample",
             static_cast<double>(disk) / static_cast<double>(total_rows));
  queries.Emit(layers, report, MedianSpanNs(live, "client.query"));
  report.lines.push_back(
      "stages query: of which pubsub.wal_read median=" +
      Fmt(MedianSpanNs(replay, "pubsub.wal_read") / 1e3, 2) +
      "us coldtier.scan median=" +
      Fmt(MedianSpanNs(replay, "coldtier.scan") / 1e3, 2) + "us");
  layers.Set("cq.pump_ns_per_update",
             TotalSpanNs(replay, "cq.pump") /
                 static_cast<double>(std::max<std::uint64_t>(updates, 1)),
             "base: " + std::to_string(updates) + " updates");
  layers.Set("cq.updates_per_tick",
             static_cast<double>(updates) /
                 static_cast<double>(std::max<std::uint64_t>(pumps, 1)),
             "base: " + std::to_string(pumps) + " 2 ms ticks");
  layers.Set("cq.coalesced_ratio",
             1.0 - static_cast<double>(updates) /
                       static_cast<double>(std::max<std::uint64_t>(
                           cq_samples, 1)),
             "samples folded into another push; base: " +
                 std::to_string(cq_samples) + " samples");
  const Summary traced_lag = b.lag_log.Summarize().all;
  layers.Set("cq.push_lag_p50_us", traced_lag.p50, CountNote(traced_lag));
  layers.Set("cq.push_lag_p99_us", traced_lag.p99, CountNote(traced_lag));
  layers.Set("coldtier.compact_rows_per_s",
             static_cast<double>(compacted.rows_compacted) / compact_s,
             "set-up compaction of " +
                 std::to_string(compacted.rows_compacted) + " rows");
  layers.Set("coldtier.compression_ratio",
             static_cast<double>(compacted.raw_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(
                     compacted.block_bytes, 1)),
             "WAL bytes / block bytes");
  layers.Set("coldtier.scan_ns_per_row",
             TotalSpanNs(replay, "coldtier.scan") /
                 static_cast<double>(std::max<std::uint64_t>(
                     cold_stats.rows_visited, 1)),
             "base: " + std::to_string(cold_stats.rows_visited) + " rows");
  layers.Set("coldtier.blocks_pruned_ratio",
             static_cast<double>(cold_stats.blocks_pruned) /
                 static_cast<double>(std::max<std::uint64_t>(
                     cold_stats.blocks_total, 1)),
             "base: " + std::to_string(cold_stats.blocks_total) + " blocks");
  layers.Set("loadgen.lag_p99_us", b.lateness_log.Summarize().all.p99,
             "open-loop generator lateness; tick is 4000 us");
  const double ops_a = query.rate;
  const double ops_b = b.query_log.Summarize().rate;
  layers.Set("trace.overhead_pct", 100.0 * (ops_a - ops_b) / ops_a,
             "dashboard queries_per_s untraced vs traced");
  layers.EmitInto(report);
  MergeSpans(live, rlog.spans());
  report.spans = std::move(live);
  return report;
}

}  // namespace perfbench
