// Hot-path microbenchmarks for the broker, ring-buffer stream, and O(1)
// rolling-aggregate query path.
//
// (a) publish: N producer threads, each publishing to its own topic through
//     a TopicHandle resolved once (no registry lookup per publish).
// (b) query: latest-value and predicate-free aggregate latency through the
//     AQE executor at window sizes 4096 and 65536 — both paths answer from
//     O(1) state, so latency should be flat in the window size.
// (c) archive: WAL append throughput under fsync=never vs fsync=every-64
//     (the durability knob's cost), and cold-recovery replay rate (segment
//     scan + CRC re-validation on open).
// (d) tracing overhead: lane (a)'s publish loop on the live Broker with the
//     TraceRecorder disabled and enabled, in alternating reps. Cost is
//     producer thread-CPU ns per event (CLOCK_THREAD_CPUTIME_ID, so time
//     spent descheduled does not count), median over reps per side; the
//     ratio is the price of leaving span recording on.
// (e) network fabric: loopback apollod daemon on an ephemeral port —
//     round-trip-acked publish throughput (ApolloClient::Publish, a
//     one-sample kPublishBatch) and query RTT p50/p99 with 1 and 4
//     concurrent clients. Puts a number on the wire-protocol tax over
//     lanes (a)/(b)'s in-process cost.
// (f) batched ingest: round-trip-acked kPublishBatch throughput at batch
//     sizes 1/16/256/4096 against the same loopback daemon (the per-frame
//     syscall + ack tax amortized N ways). batch=256 must beat batch=1 by
//     >= 5x.
// (g) cold tier: sealed WAL segments compacted into columnar blocks
//     (delta-of-delta timestamps, XOR'd values) — compression ratio vs the
//     raw WAL bytes drained (must clear 3x) plus compaction and zone-map
//     pruned cold-scan rates. The scan is ColdTier::VisitRange handing
//     each block's rows over as column spans, as the executor reads them.
// (h) continuous-query fan-out: N subscriber connections each holding one
//     registered CQ over a shared topic (the in-process mirror of
//     tools/cq_loadgen) — aggregate push throughput and p99 push gap at
//     100/1000 subscribers (plus 5000 in full mode), and the shed-mode
//     query path (degraded cached answer for an over-quota tenant) vs the
//     normally admitted path.
//
// Results are printed as tables and written to BENCH_hotpath.json, with
// the host's fingerprint (hardware threads and CPU model):
// tools/check_bench.py compares wall-clock numbers only between runs on
// hosts with the same one.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "bench/bench_util.h"
#include "coldtier/cold_tier.h"
#include "net/client.h"
#include "net/daemon.h"
#include "obs/trace.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

// ---- publish throughput --------------------------------------------------

// Defaults; --quick divides the workload ~10x for CI smoke runs where the
// point is "still runs, numbers in sane ranges", not stable measurements.
std::uint64_t g_total_events = 4'000'000;  // split across producers
int g_publish_reps = 3;                    // best-of to damp noise
int g_overhead_reps = 9;                   // off/on pairs; median per side

std::int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PercentileNs(std::vector<double>& samples, double pct) {
  if (samples.empty()) return -1.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

// Realistic SCoRe topic names (node-qualified metric paths).
std::string TopicName(int p) {
  return "node" + std::to_string(p) + ".lustre.ost0.read_bytes";
}

struct PublishRun {
  double events_per_sec;
  double cpu_ns_per_event;  // producer thread CPU, summed over producers
};

// One run of the publish loop: `producers` threads, each publishing to its
// own topic of a fresh Broker through a resolved TopicHandle.
PublishRun PublishOnce(int producers) {
  Broker broker(RealClock::Instance());
  std::vector<TopicHandle> handles;
  for (int p = 0; p < producers; ++p) {
    broker.CreateTopic(TopicName(p), kLocalNode, 4096);
    handles.push_back(*broker.Resolve(TopicName(p)));
  }
  const std::uint64_t per_thread =
      g_total_events / static_cast<std::uint64_t>(producers);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> cpu_ns{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      TopicHandle& handle = handles[static_cast<std::size_t>(p)];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t cpu_start = ThreadCpuNs();
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const TimeNs ts = static_cast<TimeNs>(i);
        (void)broker.Publish(handle, kLocalNode, ts,
                             Sample{ts, 1.0, Provenance::kMeasured});
      }
      cpu_ns.fetch_add(ThreadCpuNs() - cpu_start, std::memory_order_relaxed);
    });
  }
  // Start together: a producer still being scheduled when `go` flips would
  // run alone for a while, and shared-cell contention would vary by run.
  while (ready.load(std::memory_order_acquire) < producers) {
    std::this_thread::yield();
  }
  Stopwatch watch;
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  const double events =
      static_cast<double>(producers) * static_cast<double>(per_thread);
  return {events / watch.ElapsedSeconds(),
          static_cast<double>(cpu_ns.load()) / events};
}

double PublishThroughput(int producers) {
  double best = 0.0;
  for (int rep = 0; rep < g_publish_reps; ++rep) {
    best = std::max(best, PublishOnce(producers).events_per_sec);
  }
  return best;
}

// ---- tracing overhead ------------------------------------------------------

struct OverheadPoint {
  int producers;
  double off_cpu_ns;
  double on_cpu_ns;
  double overhead_pct;
};

// Alternates tracing-off and tracing-on runs (flipping which side goes
// first each rep, so drift lands on both sides) and compares the medians.
OverheadPoint MeasureTracingOverhead(int producers) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<double> off;
  std::vector<double> on;
  for (int rep = 0; rep < g_overhead_reps; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == (rep % 2 == 1);
      if (traced) {
        recorder.Enable();
      } else {
        recorder.Disable();
      }
      (traced ? on : off).push_back(PublishOnce(producers).cpu_ns_per_event);
    }
  }
  recorder.Disable();
  recorder.Clear();
  OverheadPoint point;
  point.producers = producers;
  point.off_cpu_ns = PercentileNs(off, 50.0);
  point.on_cpu_ns = PercentileNs(on, 50.0);
  point.overhead_pct = (point.on_cpu_ns / point.off_cpu_ns - 1.0) * 100.0;
  return point;
}

// ---- query latency -------------------------------------------------------

int g_query_iters = 20'000;

double QueryLatencyNs(aqe::Executor& executor, const std::string& query) {
  // Warm the plan cache (and fault in any lazy state) before timing.
  auto warm = executor.Execute(query);
  if (!warm.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 warm.error().ToString().c_str());
    return -1.0;
  }
  Stopwatch watch;
  for (int i = 0; i < g_query_iters; ++i) {
    auto rs = executor.Execute(query);
    if (!rs.ok() || rs->NumRows() == 0) return -1.0;
  }
  return static_cast<double>(watch.ElapsedNs()) / g_query_iters;
}

struct QueryPoint {
  std::size_t window;
  double latest_ns;
  double aggregate_ns;
};

QueryPoint MeasureQueries(std::size_t window) {
  Broker broker(RealClock::Instance());
  broker.CreateTopic("m", kLocalNode, window);
  auto handle = *broker.Resolve("m");
  for (std::size_t i = 0; i < window; ++i) {
    const TimeNs ts = static_cast<TimeNs>(i);
    (void)broker.Publish(handle, kLocalNode, ts,
                         Sample{ts, static_cast<double>(i % 97),
                                Provenance::kMeasured});
  }
  aqe::Executor executor(broker);
  QueryPoint point;
  point.window = window;
  point.latest_ns = QueryLatencyNs(executor, "SELECT LAST(metric) FROM m");
  point.aggregate_ns = QueryLatencyNs(
      executor,
      "SELECT COUNT(*), AVG(metric), MIN(metric), MAX(metric) FROM m");
  return point;
}

// ---- archive WAL lanes ---------------------------------------------------

std::uint64_t g_archive_records_nosync = 200'000;
std::uint64_t g_archive_records_sync = 50'000;

struct ArchivePoint {
  const char* policy;
  std::uint64_t records;
  double records_per_sec;
  double mb_per_sec;
};

struct RecoveryPoint {
  std::uint64_t records;
  double replay_per_sec;
  double open_ms;
};

constexpr double kRecordBytes =
    static_cast<double>(sizeof(Archiver<Sample>::Record));

ArchivePoint ArchiveAppendThroughput(const char* policy_name,
                                     FsyncPolicy policy,
                                     std::uint64_t records) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "apollo_bench_wal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  WalConfig config;
  config.fsync_policy = policy;
  config.fsync_every_n = 64;
  double elapsed;
  {
    Archiver<Sample> archiver((dir / "metric.log").string(), config);
    Stopwatch watch;
    for (std::uint64_t i = 0; i < records; ++i) {
      const TimeNs ts = static_cast<TimeNs>(i);
      (void)archiver.Append(i, ts,
                            Sample{ts, static_cast<double>(i % 97),
                                   Provenance::kMeasured});
    }
    elapsed = watch.ElapsedSeconds();
  }
  fs::remove_all(dir);
  const double rate = static_cast<double>(records) / elapsed;
  return {policy_name, records, rate, rate * kRecordBytes / (1024.0 * 1024.0)};
}

RecoveryPoint ColdRecoveryReplayRate(std::uint64_t records) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "apollo_bench_wal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = (dir / "metric.log").string();
  {
    Archiver<Sample> writer(base);
    for (std::uint64_t i = 0; i < records; ++i) {
      const TimeNs ts = static_cast<TimeNs>(i);
      (void)writer.Append(i, ts,
                          Sample{ts, static_cast<double>(i % 97),
                                 Provenance::kMeasured});
    }
  }
  // Cold open: scan every segment, CRC-validate every record, then replay
  // the tail the way ApolloService::Recover() would.
  Stopwatch watch;
  Archiver<Sample> reader(base);
  auto tail = reader.TailRecords(records);
  const double elapsed = watch.ElapsedSeconds();
  fs::remove_all(dir);
  const std::uint64_t replayed = tail.ok() ? tail->size() : 0;
  return {replayed, static_cast<double>(replayed) / elapsed,
          elapsed * 1e3};
}

// ---- cold tier lane -------------------------------------------------------

std::uint64_t g_cold_records = 200'000;

struct ColdPoint {
  std::uint64_t records;
  std::uint64_t raw_bytes;
  std::uint64_t block_bytes;
  double compression_ratio;
  double compact_rows_per_sec;
  double scan_rows_per_sec;
};

ColdPoint MeasureColdTier(std::uint64_t records) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "apollo_bench_cold";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = (dir / "metric.log").string();
  ColdPoint point{records, 0, 0, 0.0, 0.0, 0.0};
  {
    WalConfig config;
    config.segment_bytes = 256 * 1024;  // many sealed segments -> many blocks
    Archiver<Sample> archiver(base, config);
    for (std::uint64_t i = 0; i < records; ++i) {
      const TimeNs ts = static_cast<TimeNs>(i) * 1'000'000;  // 1ms cadence
      (void)archiver.Append(i, ts,
                            Sample{ts, static_cast<double>(i % 97),
                                   Provenance::kMeasured});
    }
    coldtier::ColdTier cold(base);
    if (!cold.Open().ok()) {
      fs::remove_all(dir);
      return point;
    }
    Stopwatch compact_watch;
    auto result = cold.CompactOnce(archiver);
    const double compact_elapsed = compact_watch.ElapsedSeconds();
    if (!result.ok()) {
      fs::remove_all(dir);
      return point;
    }
    point.raw_bytes = result->raw_bytes;
    point.block_bytes = result->block_bytes;
    point.compression_ratio =
        result->block_bytes > 0
            ? static_cast<double>(result->raw_bytes) /
                  static_cast<double>(result->block_bytes)
            : 0.0;
    point.compact_rows_per_sec =
        static_cast<double>(result->rows_compacted) / compact_elapsed;

    TimeNs min_ts = 0;
    TimeNs max_ts = 0;
    cold.TsBounds(&min_ts, &max_ts);
    std::uint64_t rows_scanned = 0;
    Stopwatch scan_watch;
    (void)cold.VisitRange(
        min_ts, TierCap::Through(max_ts), nullptr,
        [&rows_scanned](const std::uint64_t*, const ColumnSpan& rows) {
          rows_scanned += rows.size;
        },
        nullptr);
    point.scan_rows_per_sec =
        static_cast<double>(rows_scanned) / scan_watch.ElapsedSeconds();
  }
  fs::remove_all(dir);
  return point;
}

// The CPU model the kernel reports, with JSON's special characters
// blanked; "unknown" when it reports none.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(" \t"));
    for (char& c : model) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        c = ' ';
      }
    }
    return model;
  }
  return "unknown";
}

// ---- network fabric (loopback daemon) ------------------------------------

std::uint64_t g_net_publishes = 20'000;  // per client, round-trip acked
int g_net_queries = 2'000;               // per client, RTT sampled

struct NetPoint {
  int clients;
  double publish_events_per_sec;
  double rtt_p50_ns;
  double rtt_p99_ns;
};

NetPoint MeasureLoopback(int clients) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  std::vector<std::string> topics;
  for (int c = 0; c < clients; ++c) {
    topics.push_back("netbench.c" + std::to_string(c));
    broker.CreateTopic(topics.back(), kLocalNode, 4096);
  }
  aqe::Executor executor(broker);
  net::ApolloDaemon daemon(broker, executor);
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "loopback daemon failed to start\n");
    return {clients, -1.0, -1.0, -1.0};
  }

  const std::uint64_t per_client =
      g_net_publishes / static_cast<std::uint64_t>(clients);
  const int queries_per_client = g_net_queries / clients;
  std::vector<std::vector<double>> rtts(static_cast<std::size_t>(clients));
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  Stopwatch publish_watch;
  double publish_elapsed = 0.0;
  {
    std::atomic<int> publishing{clients};
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        net::ClientConfig config;
        config.port = daemon.port();
        config.client_name = "bench-" + std::to_string(c);
        net::ApolloClient client(config);
        const std::string& topic = topics[static_cast<std::size_t>(c)];
        const std::string sql = "SELECT LAST(Metric) FROM " + topic;
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        // Publish phase: every event is round-trip acknowledged.
        for (std::uint64_t i = 0; i < per_client; ++i) {
          const TimeNs ts = static_cast<TimeNs>(i);
          (void)client.Publish(topic, ts,
                               Sample{ts, 1.0, Provenance::kMeasured});
        }
        publishing.fetch_sub(1, std::memory_order_acq_rel);
        // Query phase: sample per-request wall time for the percentiles.
        auto& samples = rtts[static_cast<std::size_t>(c)];
        samples.reserve(static_cast<std::size_t>(queries_per_client));
        for (int i = 0; i < queries_per_client; ++i) {
          const TimeNs start = clock.Now();
          auto reply = client.Query(sql);
          if (reply.ok()) {
            samples.push_back(static_cast<double>(clock.Now() - start));
          }
        }
      });
    }
    publish_watch = Stopwatch();
    go.store(true, std::memory_order_release);
    while (publishing.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    publish_elapsed = publish_watch.ElapsedSeconds();
    for (auto& worker : workers) worker.join();
  }
  daemon.Stop();

  std::vector<double> all_rtts;
  for (auto& samples : rtts) {
    all_rtts.insert(all_rtts.end(), samples.begin(), samples.end());
  }
  NetPoint point;
  point.clients = clients;
  point.publish_events_per_sec =
      static_cast<double>(per_client) * clients / publish_elapsed;
  point.rtt_p50_ns = PercentileNs(all_rtts, 50.0);
  point.rtt_p99_ns = PercentileNs(all_rtts, 99.0);
  return point;
}

// ---- batched ingest (lane f) ---------------------------------------------

std::uint64_t g_batch_events = 200'000;  // target per batch size (clamped)

struct BatchPoint {
  std::size_t batch;
  std::uint64_t events;
  double events_per_sec;
};

BatchPoint MeasureBatchPublish(std::size_t batch) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  const std::string topic = "batchbench.t0";
  broker.CreateTopic(topic, kLocalNode, 8192);
  aqe::Executor executor(broker);
  net::ApolloDaemon daemon(broker, executor);
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "loopback daemon failed to start\n");
    return {batch, 0, -1.0};
  }
  net::ClientConfig config;
  config.port = daemon.port();
  config.client_name = "bench-batch";
  net::ApolloClient client(config);

  // Bound the wall time per size: small batches get more round trips (so
  // the timing is stable), huge ones fewer.
  const std::uint64_t trips = std::clamp<std::uint64_t>(
      g_batch_events / batch, std::uint64_t{50}, std::uint64_t{2000});
  net::PublishBatchMsg msg;
  msg.runs.emplace_back();
  msg.runs.back().topic = topic;
  auto& entries = msg.runs.back().entries;
  entries.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const TimeNs ts = static_cast<TimeNs>(i);
    entries[i].timestamp = ts;
    entries[i].value = Sample{ts, 1.0, Provenance::kMeasured};
  }
  Stopwatch watch;
  for (std::uint64_t t = 0; t < trips; ++t) {
    auto ack = client.PublishBatch(msg);
    if (!ack.ok() || ack->error_count != 0) {
      std::fprintf(stderr, "batch publish failed\n");
      daemon.Stop();
      return {batch, 0, -1.0};
    }
  }
  const double elapsed = watch.ElapsedSeconds();
  daemon.Stop();
  const std::uint64_t events = trips * batch;
  return {batch, events, static_cast<double>(events) / elapsed};
}

// ---- continuous-query fan-out (lane h) -----------------------------------

double g_cq_duration_s = 3.0;  // publish window per subscriber count
int g_cq_shed_queries = 2'000;

struct CQFanoutPoint {
  int clients;
  std::uint64_t updates;
  double push_events_per_sec;
  double p99_push_gap_ns;
};

// Thousands of subscriber sockets (bench side + daemon side) need more
// than the default 1024-fd ceiling.
void RaiseFdLimit() {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

CQFanoutPoint MeasureCQFanout(int clients) {
  RaiseFdLimit();
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  const std::string topic = "cqbench.t0";
  broker.CreateTopic(topic, kLocalNode, 4096);
  aqe::Executor executor(broker);
  net::DaemonConfig daemon_config;
  daemon_config.cq.max_queries =
      std::max<std::size_t>(8192, static_cast<std::size_t>(clients) * 2);
  net::ApolloDaemon daemon(broker, executor, daemon_config);
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "cq fan-out daemon failed to start\n");
    return {clients, 0, -1.0, -1.0};
  }

  const int threads = std::max(
      1, std::min({clients, 16,
                   static_cast<int>(std::thread::hardware_concurrency())}));
  std::atomic<std::uint64_t> updates{0};
  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::atomic<TimeNs> last_recv{0};
  std::vector<std::vector<double>> gaps(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const int share =
          clients / threads + (t < clients % threads ? 1 : 0);
      std::vector<std::unique_ptr<net::ApolloClient>> swarm;
      std::vector<TimeNs> last(static_cast<std::size_t>(share), 0);
      for (int c = 0; c < share; ++c) {
        net::ClientConfig config;
        config.port = daemon.port();
        config.client_name = "cq-bench";
        auto client = std::make_unique<net::ApolloClient>(std::move(config));
        char name[32];
        std::snprintf(name, sizeof name, "b-%d-%d", t, c);
        if (client->CQRegister(
                       name, "SUBSCRIBE SELECT AVG(Metric) FROM " + topic)
                .ok()) {
          swarm.push_back(std::move(client));
        }
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      auto& local_gaps = gaps[static_cast<std::size_t>(t)];
      // Sweep until the publisher stops, then once more to drain what the
      // last pump tick pushed.
      bool final_pass = false;
      while (!final_pass) {
        final_pass = stop.load(std::memory_order_acquire);
        for (std::size_t c = 0; c < swarm.size(); ++c) {
          if (!swarm[c]->WaitForCQUpdates(500 * kNsPerUs)) continue;
          const auto batch = swarm[c]->TakeCQUpdates();
          const TimeNs now = clock.Now();
          updates.fetch_add(batch.size(), std::memory_order_relaxed);
          if (last[c] != 0) {
            local_gaps.push_back(static_cast<double>(now - last[c]));
          }
          last[c] = now;
          TimeNs prev = last_recv.load(std::memory_order_relaxed);
          while (prev < now &&
                 !last_recv.compare_exchange_weak(prev, now)) {
          }
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  // Keep the shared topic moving for the measurement window; every
  // publish dirties all N materialized CQs and the pump fans the refreshed
  // row set out to every subscriber.
  const TimeNs start = clock.Now();
  const TimeNs publish_deadline = start + Seconds(g_cq_duration_s);
  double v = 0.0;
  while (clock.Now() < publish_deadline) {
    const TimeNs now = clock.Now();
    (void)broker.Publish(topic, kLocalNode, now,
                         Sample{now, v += 1.0, Provenance::kMeasured});
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
  }
  stop.store(true, std::memory_order_release);
  for (auto& worker : pool) worker.join();
  daemon.Stop();

  std::vector<double> all_gaps;
  for (auto& g : gaps) all_gaps.insert(all_gaps.end(), g.begin(), g.end());
  const double elapsed =
      ToSeconds(std::max<TimeNs>(1, last_recv.load() - start));
  CQFanoutPoint point;
  point.clients = clients;
  point.updates = updates.load();
  point.push_events_per_sec = static_cast<double>(point.updates) / elapsed;
  point.p99_push_gap_ns = PercentileNs(all_gaps, 99.0);
  return point;
}

struct ShedPoint {
  double normal_rtt_ns = -1.0;
  double shed_rtt_ns = -1.0;
  double overhead_pct = 0.0;
  bool degraded_ok = false;
};

// One-shot query RTT for a tenant inside quota vs one shedding to the
// cached last-known-good answer — the admission layer's fast-path tax.
ShedPoint MeasureShedOverhead(int queries) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  const std::string topic = "cqbench.shed";
  broker.CreateTopic(topic, kLocalNode, 4096);
  for (int i = 0; i < 64; ++i) {
    const TimeNs ts = static_cast<TimeNs>(i);
    (void)broker.Publish(topic, kLocalNode, ts,
                         Sample{ts, 1.0, Provenance::kMeasured});
  }
  aqe::Executor executor(broker);
  net::DaemonConfig daemon_config;
  // Effectively one admitted query ever: enough to warm the answer cache,
  // every later query sheds.
  cq::TenantQuota quota;
  quota.rate_per_sec = 1e-9;
  quota.burst = 1;
  daemon_config.admission.tenant_quotas["shed-bench"] = quota;
  net::ApolloDaemon daemon(broker, executor, daemon_config);
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "shed bench daemon failed to start\n");
    return {};
  }
  const std::string sql = "SELECT AVG(Metric) FROM " + topic;
  const auto measure = [&](const std::string& tenant, bool expect_degraded,
                           bool& degraded_ok) -> double {
    net::ClientConfig config;
    config.port = daemon.port();
    config.client_name = "shed-bench";
    config.tenant = tenant;
    net::ApolloClient client(config);
    auto warm = client.Query(sql);  // admitted; populates the cache
    if (!warm.ok()) return -1.0;
    degraded_ok = true;
    Stopwatch watch;
    for (int i = 0; i < queries; ++i) {
      auto reply = client.Query(sql);
      if (!reply.ok() || reply->result.degraded != expect_degraded) {
        degraded_ok = false;
      }
    }
    return watch.ElapsedSeconds() * 1e9 / queries;
  };
  ShedPoint point;
  bool normal_ok = false;
  point.normal_rtt_ns = measure("", false, normal_ok);
  point.shed_rtt_ns = measure("shed-bench", true, point.degraded_ok);
  point.degraded_ok = point.degraded_ok && normal_ok;
  daemon.Stop();
  if (point.normal_rtt_ns > 0.0 && point.shed_rtt_ns > 0.0) {
    point.overhead_pct =
        (point.shed_rtt_ns / point.normal_rtt_ns - 1.0) * 100.0;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  if (quick) {
    g_total_events = 400'000;
    g_publish_reps = 1;
    g_overhead_reps = 5;
    g_query_iters = 2'000;
    g_archive_records_nosync = 20'000;
    g_archive_records_sync = 5'000;
    g_net_publishes = 2'000;
    g_net_queries = 400;
    g_batch_events = 20'000;
    g_cold_records = 20'000;
    g_cq_duration_s = 1.5;
    g_cq_shed_queries = 400;
    std::printf("quick mode: %llu events, best of %d, %d query iters\n",
                static_cast<unsigned long long>(g_total_events),
                g_publish_reps, g_query_iters);
  }

  PrintHeader("Hot path (a)",
              "publish throughput: broker + topic handles; one "
              "topic per producer, best of 3");
  PrintRow({"producers", "ev/s"});
  struct PublishPoint {
    int producers;
    double events_per_sec;
  };
  std::vector<PublishPoint> publish_points;
  for (int producers : {1, 4, 16}) {
    const double events_per_sec = PublishThroughput(producers);
    publish_points.push_back({producers, events_per_sec});
    PrintRow({std::to_string(producers), Fmt("%.0f", events_per_sec)});
  }
  std::printf(
      "expected shape: producers publish to distinct topics through "
      "handles, so throughput scales with cores until memory bandwidth "
      "saturates (this host has %u hardware threads)\n",
      std::thread::hardware_concurrency());

  PrintHeader("Hot path (b)",
              "query latency through the AQE executor (plan cache warm); "
              "latest-value and predicate-free aggregates answer from O(1) "
              "state, flat across window sizes");
  PrintRow({"window", "LAST ns/query", "aggregate ns/query"});
  std::vector<QueryPoint> query_points;
  for (std::size_t window : {std::size_t{4096}, std::size_t{65536}}) {
    const QueryPoint point = MeasureQueries(window);
    query_points.push_back(point);
    PrintRow({std::to_string(window), Fmt("%.0f", point.latest_ns),
              Fmt("%.0f", point.aggregate_ns)});
  }
  std::printf("expected shape: both columns flat in the window size\n");

  PrintHeader("Hot path (c)",
              "archive WAL: append throughput by fsync policy (never = OS "
              "holds durability, every-64 = bounded-loss barrier), and "
              "cold-recovery replay rate (segment scan + per-record CRC on "
              "open)");
  PrintRow({"fsync policy", "records", "records/s", "MB/s"});
  std::vector<ArchivePoint> archive_points;
  archive_points.push_back(ArchiveAppendThroughput(
      "never", FsyncPolicy::kNever, g_archive_records_nosync));
  archive_points.push_back(ArchiveAppendThroughput(
      "every-64", FsyncPolicy::kEveryN, g_archive_records_sync));
  for (const auto& a : archive_points) {
    PrintRow({a.policy, std::to_string(a.records),
              Fmt("%.0f", a.records_per_sec), Fmt("%.1f", a.mb_per_sec)});
  }
  const RecoveryPoint recovery =
      ColdRecoveryReplayRate(g_archive_records_nosync);
  PrintRow({"cold recovery", std::to_string(recovery.records),
            Fmt("%.0f", recovery.replay_per_sec),
            Fmt("%.1f ms", recovery.open_ms)});
  std::printf(
      "expected shape: every-64 trails never by the fsync barrier cost; "
      "recovery replay is sequential-read bound\n");

  PrintHeader("Hot path (d)",
              "tracing overhead: lane (a)'s loop on the live broker with the "
              "TraceRecorder off and on, alternating reps; producer "
              "thread-CPU ns per event, median per side");
  PrintRow({"producers", "off cpu ns/ev", "on cpu ns/ev", "overhead"});
  std::vector<OverheadPoint> overhead_points;
  for (int producers : {1, 4}) {
    const OverheadPoint point = MeasureTracingOverhead(producers);
    overhead_points.push_back(point);
    PrintRow({std::to_string(producers), Fmt("%.1f", point.off_cpu_ns),
              Fmt("%.1f", point.on_cpu_ns),
              Fmt("%+.1f%%", point.overhead_pct)});
  }
  std::printf(
      "expected shape: off pays one relaxed load per span; on pays two "
      "clock reads and a per-thread ring append per span, the cost that "
      "sampled always-on tracing has to bring down\n");

  PrintHeader("Hot path (e)",
              "network fabric: loopback apollod on an ephemeral port; "
              "round-trip-acked publish throughput and query RTT "
              "percentiles per concurrent-client count");
  PrintRow({"clients", "publish ev/s", "query RTT p50 us", "p99 us"});
  std::vector<NetPoint> net_points;
  for (int clients : {1, 4}) {
    const NetPoint point = MeasureLoopback(clients);
    net_points.push_back(point);
    PrintRow({std::to_string(clients),
              Fmt("%.0f", point.publish_events_per_sec),
              Fmt("%.1f", point.rtt_p50_ns / 1e3),
              Fmt("%.1f", point.rtt_p99_ns / 1e3)});
  }
  std::printf(
      "expected shape: wire round trips cost microseconds where lane (b) "
      "costs nanoseconds — the daemon serializes queries on its loop "
      "thread, so p50 grows with client count while aggregate publish "
      "throughput scales until the loop saturates\n");

  PrintHeader("Hot path (f)",
              "batched ingest: round-trip-acked kPublishBatch throughput by "
              "batch size (one frame, one CRC, one cumulative ack)");
  PrintRow({"batch", "events", "events/s", "vs batch=1"});
  std::vector<BatchPoint> batch_points;
  double batch1_rate = 0.0;
  for (std::size_t batch :
       {std::size_t{1}, std::size_t{16}, std::size_t{256},
        std::size_t{4096}}) {
    const BatchPoint point = MeasureBatchPublish(batch);
    batch_points.push_back(point);
    if (batch == 1) batch1_rate = point.events_per_sec;
    PrintRow({std::to_string(batch), std::to_string(point.events),
              Fmt("%.0f", point.events_per_sec),
              batch1_rate > 0.0
                  ? Fmt("%.2fx", point.events_per_sec / batch1_rate)
                  : "-"});
  }
  double batch256_speedup = 0.0;
  for (const auto& b : batch_points) {
    if (b.batch == 256 && batch1_rate > 0.0) {
      batch256_speedup = b.events_per_sec / batch1_rate;
    }
  }
  std::printf(
      "expected shape: throughput grows with batch size as the per-frame "
      "round trip amortizes; batch=256 must clear 5x over batch=1 "
      "(measured %.2fx — %s)\n",
      batch256_speedup, batch256_speedup >= 5.0 ? "PASS" : "FAIL");

  PrintHeader("Hot path (g)",
              "cold tier: sealed WAL segments compacted into columnar "
              "blocks (delta-of-delta timestamps, XOR'd values, CRC-framed "
              "sections); ratio is raw WAL bytes drained over block bytes "
              "written, scan is a full-range mmap'd block scan handing "
              "out column spans");
  PrintRow({"records", "raw KB", "block KB", "ratio", "compact rows/s",
            "scan rows/s"});
  const ColdPoint cold = MeasureColdTier(g_cold_records);
  PrintRow({std::to_string(cold.records),
            Fmt("%.0f", static_cast<double>(cold.raw_bytes) / 1024.0),
            Fmt("%.0f", static_cast<double>(cold.block_bytes) / 1024.0),
            Fmt("%.2fx", cold.compression_ratio),
            Fmt("%.0f", cold.compact_rows_per_sec),
            Fmt("%.0f", cold.scan_rows_per_sec)});
  std::printf(
      "expected shape: columnar encoding must clear 3x over the raw WAL "
      "frames (measured %.2fx — %s); scan outruns compaction because "
      "reads decode mmap'd blocks while compaction re-reads, re-encodes, "
      "and fsyncs\n",
      cold.compression_ratio,
      cold.compression_ratio >= 3.0 ? "PASS" : "FAIL");

  PrintHeader("Hot path (h)",
              "continuous-query fan-out: N subscribers each holding one "
              "registered CQ over a shared topic (in-process mirror of "
              "tools/cq_loadgen); pushes are materialized-delta frames, "
              "never re-executions");
  PrintRow({"clients", "updates", "push ev/s", "p99 gap ms"});
  std::vector<CQFanoutPoint> cq_points;
  {
    std::vector<int> cq_clients = {100, 1000};
    if (!quick) cq_clients.push_back(5000);
    for (int clients : cq_clients) {
      const CQFanoutPoint point = MeasureCQFanout(clients);
      cq_points.push_back(point);
      PrintRow({std::to_string(clients), std::to_string(point.updates),
                Fmt("%.0f", point.push_events_per_sec),
                Fmt("%.1f", point.p99_push_gap_ns / 1e6)});
    }
  }
  const ShedPoint shed = MeasureShedOverhead(g_cq_shed_queries);
  PrintRow({"shed", Fmt("%.0f ns normal", shed.normal_rtt_ns),
            Fmt("%.0f ns shed", shed.shed_rtt_ns),
            Fmt("%+.1f%%", shed.overhead_pct) +
                (shed.degraded_ok ? " (degraded ok)" : " (FLAG MISMATCH)")});
  std::printf(
      "expected shape: push throughput grows with fan-out until the pump "
      "tick saturates writing N frames; the shed path answers from the "
      "last-known-good cache without touching the executor, so its RTT "
      "tracks the admitted path\n");

  std::FILE* json = std::fopen("BENCH_hotpath.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"host_hw_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"host_cpu_model\": \"%s\",\n",
                 CpuModel().c_str());
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"publish_throughput\": [\n");
    for (std::size_t i = 0; i < publish_points.size(); ++i) {
      const auto& p = publish_points[i];
      // The key keeps its old name so runs compare against the baseline.
      std::fprintf(json,
                   "    {\"producers\": %d, \"striped_events_per_sec\": "
                   "%.0f}%s\n",
                   p.producers, p.events_per_sec,
                   i + 1 < publish_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"query_latency_ns\": [\n");
    for (std::size_t i = 0; i < query_points.size(); ++i) {
      const auto& q = query_points[i];
      std::fprintf(json,
                   "    {\"window\": %zu, \"latest_ns\": %.1f, "
                   "\"aggregate_ns\": %.1f}%s\n",
                   q.window, q.latest_ns, q.aggregate_ns,
                   i + 1 < query_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"archive_append\": [\n");
    for (std::size_t i = 0; i < archive_points.size(); ++i) {
      const auto& a = archive_points[i];
      std::fprintf(json,
                   "    {\"fsync_policy\": \"%s\", \"records\": %llu, "
                   "\"records_per_sec\": %.0f, \"mb_per_sec\": %.2f}%s\n",
                   a.policy, static_cast<unsigned long long>(a.records),
                   a.records_per_sec, a.mb_per_sec,
                   i + 1 < archive_points.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"archive_recovery\": {\"records\": %llu, "
                 "\"replay_per_sec\": %.0f, \"open_ms\": %.2f},\n",
                 static_cast<unsigned long long>(recovery.records),
                 recovery.replay_per_sec, recovery.open_ms);
    std::fprintf(json, "  \"observability_overhead\": [\n");
    for (std::size_t i = 0; i < overhead_points.size(); ++i) {
      const auto& o = overhead_points[i];
      std::fprintf(json,
                   "    {\"producers\": %d, \"trace_off_cpu_ns\": %.1f, "
                   "\"trace_on_cpu_ns\": %.1f, \"overhead_pct\": %.2f}%s\n",
                   o.producers, o.off_cpu_ns, o.on_cpu_ns, o.overhead_pct,
                   i + 1 < overhead_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"net_loopback\": [\n");
    for (std::size_t i = 0; i < net_points.size(); ++i) {
      const auto& n = net_points[i];
      std::fprintf(json,
                   "    {\"clients\": %d, \"publish_events_per_sec\": %.0f, "
                   "\"query_rtt_p50_ns\": %.0f, \"query_rtt_p99_ns\": "
                   "%.0f}%s\n",
                   n.clients, n.publish_events_per_sec, n.rtt_p50_ns,
                   n.rtt_p99_ns, i + 1 < net_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"batched_ingest\": [\n");
    for (std::size_t i = 0; i < batch_points.size(); ++i) {
      const auto& b = batch_points[i];
      std::fprintf(json,
                   "    {\"batch\": %zu, \"events\": %llu, "
                   "\"events_per_sec\": %.0f, \"speedup_vs_batch1\": "
                   "%.3f}%s\n",
                   b.batch, static_cast<unsigned long long>(b.events),
                   b.events_per_sec,
                   batch1_rate > 0.0 ? b.events_per_sec / batch1_rate : -1.0,
                   i + 1 < batch_points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"cold_tier\": {\"records\": %llu, "
                 "\"compression_ratio\": %.3f, "
                 "\"compact_rows_per_sec\": %.0f, "
                 "\"scan_rows_per_sec\": %.0f},\n",
                 static_cast<unsigned long long>(cold.records),
                 cold.compression_ratio, cold.compact_rows_per_sec,
                 cold.scan_rows_per_sec);
    std::fprintf(json, "  \"cq_fanout\": [\n");
    for (std::size_t i = 0; i < cq_points.size(); ++i) {
      const auto& p = cq_points[i];
      std::fprintf(json,
                   "    {\"clients\": %d, \"updates\": %llu, "
                   "\"push_events_per_sec\": %.0f, \"p99_push_gap_ns\": "
                   "%.0f}%s\n",
                   p.clients, static_cast<unsigned long long>(p.updates),
                   p.push_events_per_sec, p.p99_push_gap_ns,
                   i + 1 < cq_points.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"cq_shed\": {\"normal_query_rtt_ns\": %.0f, "
                 "\"shed_query_rtt_ns\": %.0f, \"shed_overhead_pct\": "
                 "%.2f}\n",
                 shed.normal_rtt_ns, shed.shed_rtt_ns, shed.overhead_pct);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_hotpath.json\n");
  }
  return 0;
}
