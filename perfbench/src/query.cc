// query: three closed-loop clients issue a seeded mix of middleware
// queries against in-memory topics whose rings were prefilled. Nothing is
// archived and nothing is written during the run. The daemon runs queries
// on its loop thread, so three clients saturate the loop and daemon-side
// cost per query (parse/plan, execute, result encode) shows. Query texts
// are drawn with Zipf skew from a pool four times larger than the
// executor's 1024-entry plan cache.
#include <cstdio>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

namespace net = apollo::net;
using apollo::Sample;
using apollo::TelemetryStream;

constexpr std::size_t kClients = 3;
constexpr TimeNs kBaseTs = 2'000'000'000'000;
constexpr double kZipfS = 1.0;

struct Shape {
  std::size_t topics;
  std::size_t ring;
  std::size_t pool;
};

Shape ShapeFor(const Options& opt) {
  return opt.tiny ? Shape{4, 512, 64} : Shape{64, 8192, 4096};
}

struct PoolEntry {
  std::string text;
  int cls = 0;
  std::vector<ExpectedRow> want;
};

// The reference model: every topic's (timestamp, value) sequence, and the
// answer to each pooled query computed from it by plain loops.
struct Model {
  std::vector<std::string> names;
  std::vector<std::vector<TelemetryStream::Entry>> rows;  // per topic
};

Model BuildModel(const Shape& shape, std::uint64_t seed) {
  Model m;
  Rng rng(MixSeed(seed, 300));
  for (std::size_t t = 0; t < shape.topics; ++t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "q.t%02zu", t);
    m.names.push_back(buf);
    std::vector<TelemetryStream::Entry> rows(shape.ring);
    for (std::size_t i = 0; i < shape.ring; ++i) {
      const TimeNs ts = kBaseTs + static_cast<TimeNs>(i) * 1000 +
                        static_cast<TimeNs>(t);
      rows[i].timestamp = ts;
      rows[i].value = Sample{ts, static_cast<double>(rng.Below(100000)),
                             apollo::Provenance::kMeasured};
    }
    m.rows.push_back(std::move(rows));
  }
  return m;
}

std::string Num(TimeNs v) { return std::to_string(v); }

// Entry `rank` of the pool (rank 0 is drawn most often). Classes rotate
// with rank so every class gets the same share of the popular entries,
// whatever the seed.
PoolEntry MakeEntry(const Model& m, std::size_t rank, Rng& rng) {
  PoolEntry e;
  e.cls = static_cast<int>(rank % 4);
  const std::size_t topic = rng.Below(m.names.size());
  const auto& rows = m.rows[topic];
  const std::string& name = m.names[topic];
  switch (e.cls) {
    case kLatestUnion: {
      // The paper's placement query: newest value of several topics.
      const std::size_t k = std::min<std::size_t>(16, m.names.size());
      std::vector<std::size_t> picked;
      while (picked.size() < k) {
        const std::size_t t = rng.Below(m.names.size());
        if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
          picked.push_back(t);
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t t = picked[i];
        if (i > 0) e.text += " UNION ";
        e.text += "SELECT MAX(Timestamp), metric FROM " + m.names[t];
        const auto& last = m.rows[t].back();
        e.want.push_back({m.names[t],
                          {static_cast<double>(last.value.timestamp),
                           last.value.value}});
      }
      break;
    }
    case kIndexAgg: {
      // Predicate-free aggregates: answered by the O(1) rolling index.
      static const char* kItems[] = {"COUNT(*)",       "SUM(metric)",
                                     "AVG(metric)",    "MIN(metric)",
                                     "MAX(metric)",    "MIN(timestamp)",
                                     "MAX(timestamp)"};
      double sum = 0.0, lo = rows[0].value.value, hi = lo;
      for (const auto& r : rows) {
        sum += r.value.value;
        lo = std::min(lo, r.value.value);
        hi = std::max(hi, r.value.value);
      }
      const double n = static_cast<double>(rows.size());
      const double cells[] = {n,
                              sum,
                              sum / n,
                              lo,
                              hi,
                              static_cast<double>(rows.front().value.timestamp),
                              static_cast<double>(rows.back().value.timestamp)};
      const std::uint64_t mask = 1 + rng.Below(127);
      ExpectedRow row{name, {}};
      e.text = "SELECT ";
      for (int i = 0; i < 7; ++i) {
        if ((mask >> i & 1) == 0) continue;
        if (!row.values.empty()) e.text += ", ";
        e.text += kItems[i];
        row.values.push_back(cells[i]);
      }
      e.text += " FROM " + name;
      e.want.push_back(std::move(row));
      break;
    }
    case kWindowScan: {
      // WHERE metric > x ORDER BY metric DESC LIMIT k over the window.
      const std::uint64_t x = 90000 + rng.Below(10000);
      const std::size_t k = 1 + rng.Below(32);
      std::vector<TelemetryStream::Entry> hits;
      for (const auto& r : rows) {
        if (r.value.value > static_cast<double>(x)) hits.push_back(r);
      }
      std::stable_sort(hits.begin(), hits.end(),
                       [](const auto& a, const auto& b) {
                         return a.value.value > b.value.value;
                       });
      if (hits.size() > k) hits.resize(k);
      e.text = "SELECT timestamp, metric FROM " + name +
               " WHERE metric > " + std::to_string(x) +
               " ORDER BY metric DESC LIMIT " + std::to_string(k);
      for (const auto& h : hits) {
        e.want.push_back(
            {name, {static_cast<double>(h.value.timestamp), h.value.value}});
      }
      break;
    }
    default: {
      // timestamp BETWEEN a AND b, inside the window.
      const std::size_t len = 32 + rng.Below(225);
      const std::size_t first = rng.Below(rows.size() - len);
      e.text = "SELECT timestamp, metric FROM " + name +
               " WHERE timestamp BETWEEN " +
               Num(rows[first].timestamp) + " AND " +
               Num(rows[first + len - 1].timestamp);
      for (std::size_t i = first; i < first + len; ++i) {
        e.want.push_back({name,
                          {static_cast<double>(rows[i].value.timestamp),
                           rows[i].value.value}});
      }
      break;
    }
  }
  return e;
}

struct Client {
  std::unique_ptr<net::ApolloClient> conn;
  Rng rng;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  SpanLog log;
};

struct PhaseResult {
  std::uint64_t queries = 0;
  OpLog log;
};

// Sends one pooled query and checks the answer against the model; `log`
// (null during warm-up) gets the operation.
void QueryOne(Client& c, std::size_t ci, const std::vector<PoolEntry>& pool,
              const Zipf& zipf, bool traced, std::uint64_t request,
              bool corrupt, OpLog* log) {
  const PoolEntry& e = pool[zipf.Draw(c.rng)];
  const std::uint32_t span = traced ? c.log.Open("client.query", request) : 0;
  const TimeNs t0 = NowNs();
  auto reply = c.conn->Query(e.text);
  const TimeNs t1 = NowNs();
  if (traced) c.log.Close(span);
  ++c.queries;
  std::string why;
  if (reply.ok() && corrupt && ci == 0 && c.queries == 100 &&
      !reply->result.rows.empty() && !reply->result.rows[0].values.empty()) {
    reply->result.rows[0].values[0] += 1.0;
  }
  if (reply.ok() && SameAnswer(reply->result, e.want, &why)) {
    if (log != nullptr) log->Add(t1, static_cast<double>(t1 - t0) / 1e3, 1);
    return;
  }
  ++c.failed;
  if (log != nullptr) log->Add(t1, std::numeric_limits<double>::infinity(), 0);
  if (c.first_error.empty()) {
    c.first_error = (reply.ok() ? why : reply.error().ToString()) + " for '" +
                    e.text + "'";
  }
}

PhaseResult RunPhase(std::vector<std::unique_ptr<Client>>& clients,
                     const std::vector<PoolEntry>& pool, const Zipf& zipf,
                     double seconds, bool traced, std::uint64_t phase,
                     bool corrupt) {
  StartGate gate;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> q_before;
  for (auto& c : clients) q_before.push_back(c->queries);
  std::vector<OpLog> logs(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      PinClientThread(i);
      Client& c = *clients[i];
      gate.Wait();
      logs[i].Begin(gate.start, seconds);
      const TimeNs deadline = gate.start + static_cast<TimeNs>(seconds * 1e9);
      std::uint64_t index = 0;
      while (NowNs() < deadline) {
        const std::uint64_t request =
            (static_cast<std::uint64_t>(i + 1) << 48) | (phase << 40) |
            index++;
        QueryOne(c, i, pool, zipf, traced, request, corrupt, &logs[i]);
      }
    });
  }
  gate.Open();
  for (auto& t : threads) t.join();
  PhaseResult result;
  result.log = std::move(logs[0]);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    result.queries += clients[i]->queries - q_before[i];
    if (i > 0) result.log.Merge(logs[i]);
  }
  return result;
}

std::unique_ptr<Stack> BuildStack(const Model& m) {
  StackConfig config;
  config.topics = m.names;
  config.ring_capacity = m.rows.front().size();
  auto stack = std::make_unique<Stack>(config);
  for (std::size_t t = 0; t < m.names.size(); ++t) stack->Append(t, m.rows[t]);
  return stack;
}

}  // namespace

Report RunQuery(const Options& opt) {
  Report report;
  const Shape shape = ShapeFor(opt);

  // ---- set-up, repeated; the last one is measured ----
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Client>> clients;
  Model model;
  std::vector<PoolEntry> pool;
  const Zipf zipf(shape.pool, kZipfS);
  for (int k = 0; k < SetupRepeats(opt, 5); ++k) {
    clients.clear();
    stack.reset();
    const TimeNs t0 = k == 0 ? ProcessStartNs() : NowNs();
    model = BuildModel(shape, opt.seed);
    Rng pool_rng(MixSeed(opt.seed, 301));
    pool.clear();
    for (std::size_t i = 0; i < shape.pool; ++i) {
      pool.push_back(MakeEntry(model, i, pool_rng));
    }
    stack = BuildStack(model);
    if (!stack->StartDaemon().ok()) {
      report.Fail("daemon failed to start");
      return report;
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      auto c = std::make_unique<Client>(Client{
          std::make_unique<net::ApolloClient>(
              MakeClientConfig(stack->port(), "query-" + std::to_string(i))),
          Rng(MixSeed(opt.seed, 310 + i)), 0, 0, "",
          SpanLog(static_cast<std::uint32_t>(i + 1))});
      if (!c->conn->Connect().ok()) {
        report.Fail("client connect failed");
        return report;
      }
      // Warm-up: a few checked queries per connection.
      for (int w = 0; w < 8; ++w) {
        QueryOne(*c, i, pool, zipf, false, 0, false, nullptr);
      }
      clients.push_back(std::move(c));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // ---- measured phases ----
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  PhaseResult a = RunPhase(clients, pool, zipf, untraced_seconds, false, 0,
                           opt.corrupt);
  PhaseResult b;
  std::vector<Rng> replay_rngs;
  double cpu_us = 0.0;
  std::uint64_t allocs = 0;
  if (opt.trace) {
    for (auto& c : clients) replay_rngs.push_back(c->rng);
    const double cpu0 = ProcessCpuUs();
    const std::uint64_t alloc0 = AllocCount();
    SetAllocCounting(true);
    b = RunPhase(clients, pool, zipf, opt.seconds / 2, true, 1, false);
    SetAllocCounting(false);
    cpu_us = ProcessCpuUs() - cpu0;
    allocs = AllocCount() - alloc0;
  }

  // ---- reference-model check: every answer was compared as it came ----
  for (auto& c : clients) {
    report.attempted += c->queries;
    report.failed += c->failed;
    if (c->failed > 0) {
      report.correct = false;
      if (report.first_mismatch.empty()) report.first_mismatch = c->first_error;
    }
    c->conn->Close();
  }
  stack->StopDaemon();

  Digest digest;
  for (const auto& rows : model.rows) {
    for (const auto& r : rows) {
      digest.AddValue(r.timestamp);
      digest.AddValue(r.value.value);
    }
  }
  for (const auto& e : pool) digest.Add(e.text);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest.value()));
  report.lines.push_back(std::string("input_digest=") + hex);
  report.lines.push_back(
      "config topics=" + std::to_string(shape.topics) + " ring=" +
      std::to_string(shape.ring) + " prefilled, in memory; clients=3 "
      "closed-loop, 1 connection each; pool=" + std::to_string(shape.pool) +
      " texts, Zipf s=1.0, plan cache 1024; every answer checked");
  const Windowed rtt = a.log.Summarize();
  AddEndToEnd(report, setup_s, rtt, "query: completed queries/s", rtt,
              "query round trip");
  report.info.push_back({"queries_per_s", "1/s", rtt.rate,
                         "queries=" + std::to_string(a.queries)});
  AddLatencyInfo(report, "query", rtt.all);

  if (!opt.trace) return report;

  // ---- traced run: replay every traced query through the layers ----
  std::vector<Span> live;
  for (auto& c : clients) MergeSpans(live, c->log.spans());
  clients.clear();
  stack.reset();
  std::sort(live.begin(), live.end(),
            [](const Span& x, const Span& y) { return x.start < y.start; });
  auto twin = BuildStack(model);
  SpanLog rlog(100);
  QueryReplay replay(twin->executor(), rlog);
  for (const Span& root : live) {
    const std::size_t ci = (root.request >> 48) - 1;
    const PoolEntry& e = pool[zipf.Draw(replay_rngs[ci])];
    replay.Run(e.text, e.cls, root.request);
  }
  LayerValues layers;
  replay.Emit(layers, report, MedianSpanNs(live, "client.query"));
  layers.Set("proc.cpu_us_per_query", cpu_us / static_cast<double>(b.queries),
             "process CPU / " + std::to_string(b.queries) + " queries");
  layers.Set("proc.heap_allocs_per_query",
             static_cast<double>(allocs) / static_cast<double>(b.queries),
             "all threads");
  const double ops_a = rtt.rate;
  const double ops_b = b.log.Summarize().rate;
  layers.Set("trace.overhead_pct", 100.0 * (ops_a - ops_b) / ops_a,
             "queries_per_s untraced vs traced");
  layers.EmitInto(report);
  MergeSpans(live, rlog.spans());
  report.spans = std::move(live);
  return report;
}

}  // namespace perfbench
