// ingest: two closed-loop producers send kPublishBatch frames of long
// topic runs to many durable topics. The rings are small, so nearly every
// append evicts a row into the topic's write-ahead log (default
// FsyncPolicy::kNever). Loads frame decode, Broker::PublishBatch /
// Stream::AppendBatch and WAL append; barely touches AQE, CQ or the cold
// tier. The data is far larger than the in-memory rings.
#include <cstdio>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

namespace net = apollo::net;
using apollo::Sample;
using apollo::TelemetryStream;

constexpr std::size_t kProducers = 2;
constexpr TimeNs kBaseTs = 1'000'000'000'000;

struct Shape {
  std::size_t topics;
  std::size_t ring;
  std::size_t runs;     // topic runs per batch
  std::size_t run_len;  // mean samples per run
};

Shape ShapeFor(const Options& opt) {
  return opt.tiny ? Shape{8, 16, 4, 32} : Shape{256, 128, 8, 512};
}

// The reference model: sample `seq` of topic `t` is fully determined, so
// the model of a topic is its acked count.
TimeNs TsOf(std::size_t topic, std::uint64_t seq) {
  return kBaseTs + static_cast<TimeNs>(topic) * 7 +
         static_cast<TimeNs>(seq) * 1000;
}
double ValueOf(std::size_t topic, std::uint64_t seq) {
  return static_cast<double>((seq * 2654435761ull + topic) % 100000);
}

// One producer's input stream: batches of long runs over the topics it
// owns (topic % kProducers == producer), so per-topic timestamps stay
// monotone without coordination between producers.
class BatchGen {
 public:
  BatchGen(const std::vector<std::string>& names, std::size_t producer,
           const Shape& shape, std::uint64_t seed)
      : names_(names),
        shape_(shape),
        rng_(MixSeed(seed, 100 + producer)),
        seq_(names.size(), 0) {
    for (std::size_t t = producer; t < names.size(); t += kProducers) {
      owned_.push_back(t);
    }
  }

  void Next(net::PublishBatchMsg& msg, std::vector<std::size_t>& topics) {
    msg.runs.resize(shape_.runs);
    topics.resize(shape_.runs);
    for (std::size_t r = 0; r < shape_.runs; ++r) {
      const std::size_t t = owned_[rng_.Below(owned_.size())];
      const std::size_t len = shape_.run_len / 2 + rng_.Below(shape_.run_len);
      net::PublishBatchMsg::Run& run = msg.runs[r];
      run.topic = names_[t];
      run.entries.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t seq = seq_[t]++;
        TelemetryStream::Entry& e = run.entries[i];
        e.timestamp = TsOf(t, seq);
        e.value = Sample{e.timestamp, ValueOf(t, seq),
                         apollo::Provenance::kMeasured};
      }
      topics[r] = t;
    }
  }

 private:
  std::vector<std::string> names_;
  Shape shape_;
  Rng rng_;
  std::vector<std::size_t> owned_;
  std::vector<std::uint64_t> seq_;  // next seq per topic (owned only)
};

struct Producer {
  BatchGen gen;
  std::unique_ptr<net::ApolloClient> client;
  std::vector<std::uint64_t> acked;  // per topic (owned only)
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  SpanLog log;
};

// Sends one batch and folds the ack into the producer's model; `log`
// (null during warm-up) gets one operation weighted by its samples.
void SendOne(Producer& p, net::PublishBatchMsg& msg,
             std::vector<std::size_t>& topics, bool traced,
             std::uint64_t request, OpLog* log) {
  p.gen.Next(msg, topics);
  const std::uint32_t span =
      traced ? p.log.Open("client.publish_batch", request) : 0;
  const TimeNs t0 = NowNs();
  auto ack = p.client->PublishBatch(msg);
  const TimeNs t1 = NowNs();
  if (traced) p.log.Close(span);
  const std::size_t n = msg.SampleCount();
  ++p.batches;
  if (ack.ok() && ack->count == n && ack->error_count == 0) {
    for (std::size_t r = 0; r < topics.size(); ++r) {
      p.acked[topics[r]] += msg.runs[r].entries.size();
    }
    p.samples += n;
    if (log != nullptr) {
      log->Add(t1, static_cast<double>(t1 - t0) / 1e3,
               static_cast<std::uint32_t>(n));
    }
  } else {
    ++p.failed;
    if (log != nullptr) {
      log->Add(t1, std::numeric_limits<double>::infinity(), 0);
    }
    if (p.first_error.empty()) {
      p.first_error = ack.ok() ? "batch ack reported " +
                                     std::to_string(ack->error_count) +
                                     " rejected samples"
                               : ack.error().ToString();
    }
  }
}

struct PhaseResult {
  std::uint64_t samples = 0;
  OpLog log;
};

PhaseResult RunPhase(std::vector<std::unique_ptr<Producer>>& producers,
                     double seconds, bool traced, std::uint64_t phase) {
  StartGate gate;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> samples_before;
  for (auto& p : producers) samples_before.push_back(p->samples);
  std::vector<OpLog> logs(producers.size());
  for (std::size_t i = 0; i < producers.size(); ++i) {
    threads.emplace_back([&, i] {
      PinClientThread(i);
      Producer& p = *producers[i];
      net::PublishBatchMsg msg;
      std::vector<std::size_t> topics;
      gate.Wait();
      logs[i].Begin(gate.start, seconds);
      const TimeNs deadline =
          gate.start + static_cast<TimeNs>(seconds * 1e9);
      std::uint64_t index = 0;
      while (NowNs() < deadline) {
        const std::uint64_t request =
            (static_cast<std::uint64_t>(i + 1) << 48) | (phase << 40) |
            index++;
        SendOne(p, msg, topics, traced, request, &logs[i]);
      }
    });
  }
  gate.Open();
  for (auto& t : threads) t.join();
  PhaseResult result;
  result.log = std::move(logs[0]);
  for (std::size_t i = 0; i < producers.size(); ++i) {
    result.samples += producers[i]->samples - samples_before[i];
    if (i > 0) result.log.Merge(logs[i]);
  }
  return result;
}

std::vector<std::string> TopicNames(const Shape& shape) {
  std::vector<std::string> names;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ing.t%03zu", t);
    names.push_back(buf);
  }
  return names;
}

StackConfig ConfigFor(const Shape& shape, const std::string& dir) {
  StackConfig config;
  config.topics = TopicNames(shape);
  config.ring_capacity = shape.ring;
  config.durable = true;
  config.dir = dir;
  return config;
}

std::uint64_t InputDigest(const std::vector<std::string>& names,
                          const Shape& shape, std::uint64_t seed) {
  Digest digest;
  for (std::size_t p = 0; p < kProducers; ++p) {
    BatchGen gen(names, p, shape, seed);
    net::PublishBatchMsg msg;
    std::vector<std::size_t> topics;
    for (int b = 0; b < 64; ++b) {
      gen.Next(msg, topics);
      for (const auto& run : msg.runs) {
        digest.Add(run.topic);
        for (const auto& e : run.entries) {
          digest.AddValue(e.timestamp);
          digest.AddValue(e.value.value);
        }
      }
    }
  }
  return digest.value();
}

}  // namespace

Report RunIngest(const Options& opt) {
  Report report;
  const Shape shape = ShapeFor(opt);
  const std::string dir = opt.work_dir + "/ingest";

  // ---- set-up, repeated; the last one is measured ----
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Producer>> producers;
  for (int k = 0; k < SetupRepeats(opt, 5); ++k) {
    producers.clear();
    stack.reset();
    const TimeNs t0 = k == 0 ? ProcessStartNs() : NowNs();
    stack = std::make_unique<Stack>(ConfigFor(shape, dir));
    if (!stack->StartDaemon().ok()) {
      report.Fail("daemon failed to start");
      return report;
    }
    for (std::size_t i = 0; i < kProducers; ++i) {
      auto p = std::make_unique<Producer>(Producer{
          BatchGen(stack->config().topics, i, shape, opt.seed),
          std::make_unique<net::ApolloClient>(MakeClientConfig(
              stack->port(), "ingest-" + std::to_string(i))),
          std::vector<std::uint64_t>(shape.topics, 0), 0, 0, 0, "",
          SpanLog(static_cast<std::uint32_t>(i + 1))});
      if (!p->client->Connect().ok()) {
        report.Fail("producer connect failed");
        return report;
      }
      // Warm-up: two acked batches per producer (tracked by the model).
      net::PublishBatchMsg msg;
      std::vector<std::size_t> topics;
      for (int w = 0; w < 2; ++w) {
        SendOne(*p, msg, topics, false, 0, nullptr);
      }
      producers.push_back(std::move(p));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // ---- measured phases ----
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  PhaseResult a = RunPhase(producers, untraced_seconds, false, 0);
  PhaseResult b;
  std::vector<BatchGen> replay_gens;
  double cpu_us = 0.0;
  std::uint64_t allocs = 0;
  if (opt.trace) {
    for (auto& p : producers) replay_gens.push_back(p->gen);
    const double cpu0 = ProcessCpuUs();
    const std::uint64_t alloc0 = AllocCount();
    SetAllocCounting(true);
    b = RunPhase(producers, opt.seconds / 2, true, 1);
    SetAllocCounting(false);
    cpu_us = ProcessCpuUs() - cpu0;
    allocs = AllocCount() - alloc0;
  }

  // ---- reference-model check ----
  std::uint64_t total_acked = 0;
  for (auto& p : producers) {
    report.attempted += p->batches;
    report.failed += p->failed;
    if (p->failed > 0) {
      report.correct = false;
      if (report.first_mismatch.empty()) report.first_mismatch = p->first_error;
    }
    p->client->Close();
  }
  stack->StopDaemon();
  stack->FlushAll();
  std::uint64_t archived = 0;
  std::uint64_t fsyncs = 0;
  for (std::size_t t = 0; t < shape.topics; ++t) {
    ++report.attempted;
    const std::uint64_t acked = producers[t % kProducers]->acked[t];
    total_acked += acked;
    apollo::TelemetryStream* stream = stack->stream(t);
    apollo::Archiver<Sample>* archiver = stack->archiver(t);
    const std::uint64_t in_wal = archiver->Count();
    archived += in_wal;
    fsyncs += archiver->Fsyncs();
    const std::uint64_t expect = acked + (opt.corrupt && t == 0 ? 1 : 0);
    const std::uint64_t have = stream->Size() + in_wal;
    bool ok = have == expect;
    if (ok && acked > 0) {
      auto latest = stream->Latest();
      ok = latest.has_value() && latest->timestamp == TsOf(t, acked - 1) &&
           latest->value.value == ValueOf(t, acked - 1);
    }
    if (ok && in_wal > 0) {
      auto tail = archiver->TailRecords(std::min<std::uint64_t>(4, in_wal));
      ok = tail.ok();
      for (std::size_t i = 0; ok && i < tail->size(); ++i) {
        const std::uint64_t seq = in_wal - tail->size() + i;
        const auto& rec = (*tail)[i];
        ok = rec.id == seq && rec.timestamp == TsOf(t, seq) &&
             rec.payload.value == ValueOf(t, seq);
      }
    }
    if (!ok) {
      report.Fail("topic " + stack->config().topics[t] + ": acked " +
                  std::to_string(expect) + " but ring+wal hold " +
                  std::to_string(have) + " or contents differ");
    }
  }
  const std::uint64_t disk = stack->DiskBytes();

  // ---- report ----
  report.lines.push_back(
      "input_digest=" + [&] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(InputDigest(
                          stack->config().topics, shape, opt.seed)));
        return std::string(buf);
      }());
  report.lines.push_back(
      "config topics=" + std::to_string(shape.topics) + " ring=" +
      std::to_string(shape.ring) + " producers=2 closed-loop, 1 connection "
      "each; batch=" + std::to_string(shape.runs) + " runs x ~" +
      std::to_string(shape.run_len) +
      " samples; wal fsync_policy=kNever (default), segment 4 MiB");
  const Windowed ack = a.log.Summarize();
  AddEndToEnd(report, setup_s, ack, "ingest: acked samples/s", ack,
              "publish ack, timed from send");
  report.info.push_back({"ingest_samples_per_s", "1/s", ack.rate,
                         "samples=" + std::to_string(a.samples)});
  AddLatencyInfo(report, "publish_ack", ack.all);
  report.info.push_back(
      {"disk_bytes_per_sample", "B",
       static_cast<double>(disk) / static_cast<double>(total_acked),
       "archive bytes=" + std::to_string(disk) + " / acked samples=" +
           std::to_string(total_acked)});

  if (!opt.trace) return report;

  // ---- traced run: replay every traced batch through the layers ----
  std::vector<Span> live;
  for (auto& p : producers) MergeSpans(live, p->log.spans());
  producers.clear();
  stack.reset();  // frees the live archive before the twin writes its own

  std::sort(live.begin(), live.end(),
            [](const Span& x, const Span& y) { return x.start < y.start; });
  Stack twin(ConfigFor(shape, opt.work_dir + "/ingest_twin"));
  SpanLog rlog(100);
  PublishReplay replay(twin, rlog);
  net::PublishBatchMsg msg;
  std::vector<std::size_t> topics;
  for (const Span& root : live) {
    replay_gens[(root.request >> 48) - 1].Next(msg, topics);
    if (!replay.Run(msg, topics, root.request)) {
      report.Fail("replay publish failed");
    }
  }
  LayerValues layers;
  replay.Emit(layers, report, MedianSpanNs(live, "client.publish_batch"),
              live.size());
  layers.Set("pubsub.wal_bytes_per_record",
             static_cast<double>(disk) / static_cast<double>(archived),
             "base: " + std::to_string(archived) + " records");
  layers.Set("pubsub.wal_fsyncs_per_1k_records",
             1000.0 * static_cast<double>(fsyncs) /
                 static_cast<double>(archived),
             "fsync_policy=kNever");
  layers.Set("pubsub.disk_bytes_per_sample",
             static_cast<double>(disk) / static_cast<double>(total_acked));
  layers.Set("proc.cpu_us_per_sample",
             cpu_us / static_cast<double>(b.samples),
             "process CPU / " + std::to_string(b.samples) + " samples");
  layers.Set("proc.heap_allocs_per_sample",
             static_cast<double>(allocs) / static_cast<double>(b.samples),
             "all threads");
  const double ops_a = ack.rate;
  const double ops_b = b.log.Summarize().rate;
  layers.Set("trace.overhead_pct", 100.0 * (ops_a - ops_b) / ops_a,
             "ingest_samples_per_s untraced vs traced");
  layers.EmitInto(report);
  MergeSpans(live, rlog.spans());
  report.spans = std::move(live);
  return report;
}

}  // namespace perfbench
