// Figure 7 — latency when increasing node degree and Hamming distance.
//
// Runs under virtual time with a 50us/hop network model so the latency is
// deterministic and purely structural:
//
// (a) degree: one Insight Curator subscribes to 40 Fact Curators per node,
//     scaling nodes 1..16 (degree 40..640). We measure the virtual latency
//     from a metric change at a source to the client observing the new
//     insight. Paper shape: latency rises with degree to an upper bound.
// (b) Hamming distance: 32 fact hooks feed a chain of insight layers
//     (1..32 deep); latency grows with the chain depth, spiking at the
//     maximum distance.
#include "apollo/apollo_service.h"
#include "bench/bench_util.h"
#include "score/monitor_hook.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

// A controllable metric source.
struct Dial {
  double value = 0.0;
};

MonitorHook DialHook(Dial& dial, std::string name) {
  return MonitorHook{std::move(name),
                     [&dial](TimeNs) { return dial.value; }, Millis(1)};
}

// Measures virtual time from bumping every dial to the top insight
// reflecting the change at the client.
TimeNs MeasurePropagation(ApolloService& apollo,
                          std::vector<Dial>& dials,
                          const std::string& top_topic,
                          double target_value) {
  for (Dial& dial : dials) dial.value = target_value;
  const TimeNs start = apollo.clock().Now();
  const TimeNs deadline = start + Seconds(600);
  while (apollo.clock().Now() < deadline) {
    apollo.RunFor(Millis(50));
    auto latest = apollo.LatestValue(top_topic);
    if (latest.ok() && *latest >= target_value) {
      return apollo.clock().Now() - start;
    }
  }
  return -1;
}

ApolloOptions SimWithNetwork() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.network = std::make_shared<UniformNetwork>(Millis(0.05));
  return options;
}

}  // namespace

int main() {
  PrintHeader("Figure 7(a)",
              "client latency to pull a fresh insight vs node degree "
              "(40 fact curators per node)");
  PrintRow({"nodes", "degree", "latency(ms)"});
  for (int nodes : {1, 2, 4, 8, 16}) {
    ApolloService apollo(SimWithNetwork());
    const int facts_per_node = 40;
    std::vector<Dial> dials(
        static_cast<std::size_t>(nodes * facts_per_node));
    InsightVertexConfig insight;
    insight.topic = "agg";
    insight.node = 100;  // insight curator on its own node
    insight.pull_interval = Millis(100);
    int dial_index = 0;
    for (int n = 0; n < nodes; ++n) {
      for (int f = 0; f < facts_per_node; ++f) {
        FactDeployment deployment;
        deployment.controller = "fixed";
        deployment.fixed_interval = Millis(100);
        deployment.node = n;
        deployment.topic =
            "n" + std::to_string(n) + ".f" + std::to_string(f);
        apollo.DeployFact(
            DialHook(dials[static_cast<std::size_t>(dial_index++)],
                     deployment.topic),
            deployment);
        insight.upstream.push_back(deployment.topic);
      }
    }
    apollo.DeployInsight(insight, MaxInsight());
    apollo.RunFor(Seconds(2));  // settle
    const TimeNs latency = MeasurePropagation(apollo, dials, "agg", 1.0);
    PrintRow({std::to_string(nodes),
              std::to_string(nodes * facts_per_node),
              Fmt("%.2f", static_cast<double>(latency) / 1e6)});
  }
  std::printf("paper shape: latency increases with degree until an upper "
              "bound\n");

  PrintHeader("Figure 7(b)",
              "latency vs Hamming distance (chain of insight curator "
              "layers over 32 hooks)");
  PrintRow({"layers", "latency(ms)"});
  for (int layers : {1, 2, 4, 8, 16, 32}) {
    ApolloService apollo(SimWithNetwork());
    const int hooks = 32;
    std::vector<Dial> dials(hooks);
    std::vector<std::string> previous;
    for (int h = 0; h < hooks; ++h) {
      FactDeployment deployment;
      deployment.controller = "fixed";
      deployment.fixed_interval = Millis(100);
      deployment.node = h % 16;
      deployment.topic = "hook" + std::to_string(h);
      apollo.DeployFact(
          DialHook(dials[static_cast<std::size_t>(h)], deployment.topic),
          deployment);
      previous.push_back(deployment.topic);
    }
    for (int layer = 0; layer < layers; ++layer) {
      // Stagger each curator's phase: real vertices on distinct nodes are
      // not tick-synchronized, so a value crosses ~half a pull interval
      // per hop on average.
      apollo.RunFor(Millis(37 + 13 * (layer % 5)));
      InsightVertexConfig insight;
      insight.topic = "layer" + std::to_string(layer);
      insight.node = 16 + layer % 16;
      insight.pull_interval = Millis(100);
      insight.upstream = previous;
      apollo.DeployInsight(insight, MaxInsight());
      previous = {insight.topic};
    }
    apollo.RunFor(Seconds(2));
    const TimeNs latency = MeasurePropagation(
        apollo, dials, "layer" + std::to_string(layers - 1), 1.0);
    PrintRow({std::to_string(layers),
              Fmt("%.2f", static_cast<double>(latency) / 1e6)});
  }
  std::printf("paper shape: latency grows with Hamming distance, spiking "
              "at the maximum depth\n");
  return 0;
}
