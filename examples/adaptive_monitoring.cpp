// Adaptive-interval + Delphi demo (the paper's §3.4 pipeline end to end).
//
// Replays a 10-minute HACC-IO capacity trace through three monitoring
// setups and prints cost (hook calls) and accuracy (vs. a 1-second
// reference) for each:
//   1. fixed 5s interval,
//   2. complex AIMD adaptive interval,
//   3. complex AIMD + Delphi predictions between polls.
//
// Build & run:  ./build/examples/adaptive_monitoring
#include <cmath>
#include <cstdio>

#include "apollo/apollo_service.h"
#include "cluster/workloads.h"
#include "score/monitor_hook.h"
#include "timeseries/stats.h"

using namespace apollo;

namespace {

struct RunResult {
  std::uint64_t hook_calls = 0;
  std::uint64_t predictions = 0;
  double accuracy = 0.0;  // fraction of 1s-grid points matched (within 1%)
};

RunResult RunSetup(const CapacityTrace& trace, TimeNs duration,
                   const std::string& controller, bool use_delphi,
                   const delphi::DelphiModel* model) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);
  if (use_delphi) apollo.SetDelphiModel(model->Clone());

  FactDeployment deployment;
  deployment.controller = controller;
  deployment.fixed_interval = Seconds(5);
  deployment.aimd.initial_interval = Seconds(1);
  deployment.aimd.min_interval = Seconds(1);
  deployment.aimd.additive_step = Seconds(1);
  deployment.aimd.max_interval = Seconds(30);
  deployment.aimd.change_threshold = 1.0;
  deployment.topic = "hacc";
  deployment.publish_only_on_change = false;
  deployment.use_delphi = use_delphi;
  deployment.prediction_granularity = Seconds(1);

  auto vertex = apollo.DeployFact(TraceReplayHook(trace, "hacc", 0),
                                  deployment);
  apollo.RunFor(duration);

  // Reconstruct the monitored view on a 1-second grid (latest sample at or
  // before each second) and compare against the ground-truth trace.
  auto stream = apollo.broker().GetTopic("hacc").value();
  int matched = 0, total = 0;
  for (TimeNs t = 0; t <= duration; t += Seconds(1)) {
    const double truth = trace.ValueAt(t);
    auto entry = stream->LatestAtOrBefore(t);
    const double seen = entry.has_value() ? entry->value.value : 0.0;
    if (std::fabs(seen - truth) <= 0.01 * std::fabs(truth)) ++matched;
    ++total;
  }
  RunResult result;
  result.hook_calls = (*vertex)->stats().hook_calls;
  result.predictions = (*vertex)->stats().predictions;
  result.accuracy = static_cast<double>(matched) / total;
  return result;
}

}  // namespace

int main() {
  const TimeNs duration = Seconds(600);
  HaccTraceConfig trace_config;
  trace_config.irregular = true;
  trace_config.duration = duration;
  const CapacityTrace trace = MakeHaccCapacityTrace(trace_config);

  std::printf("training Delphi (stacked feature models, window 5)...\n");
  delphi::DelphiConfig delphi_config;
  delphi_config.feature_config.train_length = 2048;
  delphi_config.feature_config.epochs = 40;
  delphi_config.combiner_epochs = 60;
  const delphi::DelphiModel model = delphi::DelphiModel::Train(delphi_config);
  std::printf("  trained in %.1fs — %zu params (%zu trainable)\n\n",
              model.train_seconds(), model.ParamCount(),
              model.TrainableParamCount());

  struct Row {
    const char* label;
    RunResult result;
  };
  const Row rows[] = {
      {"fixed 5s", RunSetup(trace, duration, "fixed", false, nullptr)},
      {"complex AIMD", RunSetup(trace, duration, "complex_aimd", false,
                                nullptr)},
      {"complex AIMD + Delphi",
       RunSetup(trace, duration, "complex_aimd", true, &model)},
  };

  const double max_calls = static_cast<double>(duration / Seconds(1)) + 1;
  std::printf("%-24s %12s %12s %10s %10s\n", "setup", "hook calls",
              "predictions", "cost", "accuracy");
  for (const Row& row : rows) {
    std::printf("%-24s %12llu %12llu %9.2f%% %9.1f%%\n", row.label,
                static_cast<unsigned long long>(row.result.hook_calls),
                static_cast<unsigned long long>(row.result.predictions),
                100.0 * row.result.hook_calls / max_calls,
                100.0 * row.result.accuracy);
  }
  std::printf(
      "\n(cost = hook calls relative to 1s polling; accuracy = 1s-grid "
      "points within 1%% of ground truth)\n");
  return 0;
}
