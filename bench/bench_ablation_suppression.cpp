// Ablation — change suppression ("Facts are added only if there is a
// change from their previous value", §3.2).
//
// Quantifies the design point: queue traffic and service work with
// suppression on vs off, across metric volatilities. Mostly-static metrics
// (the common case for capacity) suppress almost everything; fully
// volatile metrics gain nothing.
#include "apollo/apollo_service.h"
#include "bench/bench_util.h"
#include "common/rng.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

struct Outcome {
  std::uint64_t published;
  std::uint64_t suppressed;
};

Outcome Run(double change_probability, bool suppress) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);

  auto rng = std::make_shared<Rng>(
      static_cast<std::uint64_t>(change_probability * 1e6) + suppress);
  auto value = std::make_shared<double>(0.0);
  MonitorHook hook{"m",
                   [rng, value, change_probability](TimeNs) {
                     if (rng->Bernoulli(change_probability)) {
                       *value += 1.0;
                     }
                     return *value;
                   },
                   0};
  FactDeployment deployment;
  deployment.topic = "m";
  deployment.controller = "fixed";
  deployment.fixed_interval = Seconds(1);
  deployment.publish_only_on_change = suppress;
  auto vertex = apollo.DeployFact(std::move(hook), deployment);
  apollo.RunFor(Seconds(600));

  return Outcome{(*vertex)->stats().published,
                 (*vertex)->stats().suppressed};
}

}  // namespace

int main() {
  PrintHeader("Ablation — change suppression",
              "queue entries published per 600 polls, by metric volatility "
              "(probability a poll sees a new value)");
  PrintRow({"volatility", "published(off)", "published(on)", "saved(%)"});
  for (double p : {0.0, 0.01, 0.1, 0.5, 1.0}) {
    const Outcome off = Run(p, false);
    const Outcome on = Run(p, true);
    PrintRow({Fmt("%.2f", p), std::to_string(off.published),
              std::to_string(on.published),
              Fmt("%.1f", 100.0 *
                              (static_cast<double>(off.published) -
                               static_cast<double>(on.published)) /
                              static_cast<double>(off.published))});
  }
  std::printf("\nmostly-static metrics (the common case for capacity) "
              "suppress nearly all queue traffic; fully volatile metrics "
              "pay nothing either way\n");
  return 0;
}
