// Figure 12 — comparison of Apollo and the LDMS-like baseline.
//
// Both systems monitor per-node storage metrics in real time. The
// middleware's *resource query* (UNION of latest-value table accesses,
// §4.4.1) is issued against both and timed:
//   (a) average query latency scaling managed nodes 1..16 (complexity 3),
//   (b) latency scaling query complexity 1..8 at 16 nodes,
//   (c) CPU overhead of each monitoring service at 16 nodes / complexity 3.
//
// Paper shape: Apollo ~3.5x lower latency, ~7% extra overhead.
#include <numeric>
#include <thread>

#include "apollo/apollo_service.h"
#include "aqe/query_builder.h"
#include "baselines/ldms_like.h"
#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/histogram.h"
#include "common/proc_stats.h"
#include "score/monitor_hook.h"

using namespace apollo;
using namespace apollo::bench;
using namespace apollo::baselines;

namespace {

constexpr TimeNs kSampleInterval = Millis(20);
constexpr int kQueryRounds = 300;

struct Rig {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ApolloService> apollo;
  std::unique_ptr<EventLoop> ldms_loop;
  std::unique_ptr<LdmsLikeMonitor> ldms;
  std::thread ldms_thread;
  std::vector<std::string> topics;

  ~Rig() {
    if (apollo) apollo->Stop();
    if (ldms_loop) {
      ldms_loop->Stop();
      if (ldms_thread.joinable()) ldms_thread.join();
    }
  }
};

std::unique_ptr<Rig> MakeRig(int nodes, bool start_apollo,
                             bool start_ldms) {
  auto rig = std::make_unique<Rig>();
  ClusterConfig config;
  config.compute_nodes = nodes;
  config.storage_nodes = 0;
  rig->cluster = Cluster::MakeAresLike(config);

  if (start_apollo) {
    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kRealTime;
    rig->apollo = std::make_unique<ApolloService>(options);
  }
  if (start_ldms) {
    rig->ldms_loop =
        std::make_unique<EventLoop>(RealClock::Instance());
    rig->ldms =
        std::make_unique<LdmsLikeMonitor>(*rig->ldms_loop, kSampleInterval);
  }

  for (Node* node : rig->cluster->ComputeNodes()) {
    Device& nvme = **node->FindDevice("nvme");
    const std::string topic = node->name() + "_nvme_capacity";
    rig->topics.push_back(topic);
    MonitorHook hook{topic,
                     [&nvme](TimeNs) {
                       return static_cast<double>(nvme.RemainingBytes());
                     },
                     /*cost=*/0};
    if (start_apollo) {
      FactDeployment deployment;
      deployment.controller = "fixed";
      deployment.fixed_interval = kSampleInterval;
      deployment.topic = topic;
      deployment.publish_only_on_change = false;
      rig->apollo->DeployFact(hook, deployment);
    }
    if (start_ldms) {
      rig->ldms->AddSampler(hook);
    }
  }

  // Both services have been "running for a while": seed an identical
  // telemetry history into each (LDMS retains every sample in its flat
  // store; SCoRe's bounded per-vertex window keeps the recent tail and
  // archives the rest).
  constexpr int kHistorySamples = 3000;
  for (const std::string& topic : rig->topics) {
    for (int i = 0; i < kHistorySamples; ++i) {
      const TimeNs ts = Millis(20) * i;
      const double value = 250e9 - 1e6 * i;
      if (start_ldms) rig->ldms->mutable_store().Append(topic, ts, value);
      if (start_apollo) {
        if (i == 0) {
          rig->apollo->broker().CreateTopic(topic, kLocalNode, 4096);
        }
        rig->apollo->broker().Publish(topic, kLocalNode, ts,
                                      Sample{ts, value,
                                             Provenance::kMeasured});
      }
    }
  }

  if (start_apollo) rig->apollo->Start();
  if (start_ldms) {
    rig->ldms_thread = std::thread([loop = rig->ldms_loop.get()] {
      loop->Run(std::numeric_limits<TimeNs>::max(),
                /*stop_when_idle=*/false);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm up
  return rig;
}

std::string ResourceQuery(const std::vector<std::string>& topics,
                          int complexity) {
  // Built through the typed AQE query builder, then serialized — the same
  // UNION-of-latest-values statement the paper lists in §4.4.1.
  std::vector<std::string> tables;
  for (int i = 0; i < complexity; ++i) {
    tables.push_back(topics[static_cast<std::size_t>(i) % topics.size()]);
  }
  return aqe::ToString(aqe::LatestValueQuery(tables));
}

double ApolloQueryLatencyUs(Rig& rig, int complexity,
                            LatencyHistogram* histogram = nullptr) {
  const std::string query = ResourceQuery(rig.topics, complexity);
  // Warm-up + measure.
  for (int i = 0; i < 20; ++i) rig.apollo->Query(query);
  Stopwatch total;
  for (int i = 0; i < kQueryRounds; ++i) {
    Stopwatch one;
    auto rs = rig.apollo->Query(query);
    if (!rs.ok()) return -1.0;
    if (histogram != nullptr) histogram->Record(one.ElapsedNs());
  }
  return total.ElapsedSeconds() * 1e6 / kQueryRounds;
}

// Latest-value query that defeats the O(1) head fast path (WHERE clause
// forces a window scan) — the closer analogue of the paper's measurement,
// where results are aggregated from stored samples.
double ApolloScanLatencyUs(Rig& rig, int complexity) {
  std::string query;
  for (int i = 0; i < complexity; ++i) {
    if (i > 0) query += " UNION ";
    query += "SELECT MAX(Timestamp), LAST(metric) FROM " +
             rig.topics[static_cast<std::size_t>(i) % rig.topics.size()] +
             " WHERE timestamp >= 0";
  }
  for (int i = 0; i < 20; ++i) rig.apollo->Query(query);
  Stopwatch watch;
  for (int i = 0; i < kQueryRounds; ++i) {
    auto rs = rig.apollo->Query(query);
    if (!rs.ok()) return -1.0;
  }
  return watch.ElapsedSeconds() * 1e6 / kQueryRounds;
}

double LdmsQueryLatencyUs(Rig& rig, int complexity) {
  std::vector<std::string> tables;
  for (int i = 0; i < complexity; ++i) {
    tables.push_back(rig.topics[static_cast<std::size_t>(i) %
                                rig.topics.size()]);
  }
  for (int i = 0; i < 20; ++i) rig.ldms->QueryLatest(tables);
  Stopwatch watch;
  for (int i = 0; i < kQueryRounds; ++i) {
    auto rows = rig.ldms->QueryLatest(tables);
    if (!rows.ok()) return -1.0;
  }
  return watch.ElapsedSeconds() * 1e6 / kQueryRounds;
}

}  // namespace

int main() {
  PrintHeader("Figure 12(a)",
              "average resource-query latency vs managed nodes "
              "(complexity 3)");
  PrintRow({"nodes", "apollo(us)", "apollo_scan(us)", "ldms(us)",
            "speedup(scan)"});
  for (int nodes : {1, 2, 4, 8, 16}) {
    auto rig = MakeRig(nodes, /*apollo=*/true, /*ldms=*/true);
    const double apollo_us = ApolloQueryLatencyUs(*rig, 3);
    const double scan_us = ApolloScanLatencyUs(*rig, 3);
    const double ldms_us = LdmsQueryLatencyUs(*rig, 3);
    PrintRow({std::to_string(nodes), Fmt("%.1f", apollo_us),
              Fmt("%.1f", scan_us), Fmt("%.1f", ldms_us),
              Fmt("%.2fx", ldms_us / scan_us)});
  }

  PrintHeader("Figure 12(b)",
              "query latency vs complexity (16 managed nodes)");
  PrintRow({"complexity", "apollo(us)", "ldms(us)", "speedup"});
  {
    auto rig = MakeRig(16, true, true);
    LatencyHistogram apollo_hist;
    for (int complexity : {1, 2, 3, 4, 6, 8}) {
      const double apollo_us =
          ApolloQueryLatencyUs(*rig, complexity, &apollo_hist);
      const double ldms_us = LdmsQueryLatencyUs(*rig, complexity);
      PrintRow({std::to_string(complexity), Fmt("%.1f", apollo_us),
                Fmt("%.1f", ldms_us), Fmt("%.2fx", ldms_us / apollo_us)});
    }
    std::printf("apollo query latency distribution: %s\n",
                apollo_hist.Summary().c_str());
  }

  PrintHeader("Figure 12(c)",
              "CPU cost of the monitoring service itself (16 nodes "
              "sampling at 20ms; occasional complexity-3 queries)");
  PrintRow({"service", "cpu(cores)"});
  auto measure_cpu = [](bool apollo_on) {
    auto rig = MakeRig(16, apollo_on, !apollo_on);
    const ProcSample before = SampleSelf();
    Stopwatch watch;
    while (watch.ElapsedSeconds() < 2.0) {
      // A middleware client queries every ~50ms; the rest of the time the
      // services run their samplers.
      if (apollo_on) {
        rig->apollo->Query(ResourceQuery(rig->topics, 3));
      } else {
        rig->ldms->QueryLatest({rig->topics[0], rig->topics[1],
                                rig->topics[2]});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const ProcSample after = SampleSelf();
    return CpuUtilBetween(before, after);
  };
  const double apollo_cpu = measure_cpu(true);
  const double ldms_cpu = measure_cpu(false);
  PrintRow({"apollo", Fmt("%.3f", apollo_cpu)});
  PrintRow({"ldms-like", Fmt("%.3f", ldms_cpu)});
  std::printf("apollo overhead vs ldms: %+.1f%%\n",
              100.0 * (apollo_cpu - ldms_cpu) / ldms_cpu);
  std::printf("\npaper shape: Apollo ~3.5x lower query latency at ~7%% "
              "extra overhead\n");
  return 0;
}
