// Shared driver for Figures 9 and 10 — Apollo on HACC-IO workloads with
// and without Delphi.
#pragma once

#include <cmath>

#include "apollo/apollo_service.h"
#include "bench/bench_util.h"
#include "cluster/trace_io.h"
#include "cluster/workloads.h"
#include "score/monitor_hook.h"
#include "timeseries/stats.h"

namespace apollo::bench {

struct HaccRun {
  std::uint64_t hook_calls = 0;
  std::uint64_t predictions = 0;
  double cost = 0.0;       // hook calls / 1s-equivalent
  double rmse_bytes = 0.0; // reconstructed capacity curve vs ground truth
  Series reconstructed;    // capacity on the 1s grid as Apollo saw it
};

inline HaccRun RunHaccSetup(const CapacityTrace& trace, TimeNs duration,
                            const std::string& controller, bool use_delphi,
                            const delphi::DelphiModel* model) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);
  if (use_delphi) apollo.SetDelphiModel(model->Clone());

  FactDeployment deployment;
  deployment.controller = controller;
  deployment.fixed_interval = Seconds(1);  // the 1s baseline
  deployment.aimd.initial_interval = Seconds(1);
  deployment.aimd.min_interval = Seconds(1);
  deployment.aimd.additive_step = Seconds(1);
  deployment.aimd.max_interval = Seconds(30);
  deployment.aimd.change_threshold = 50000.0;  // one write tolerated per window
  deployment.topic = "hacc";
  deployment.publish_only_on_change = false;
  deployment.use_delphi = use_delphi;
  deployment.prediction_granularity = Seconds(1);

  auto vertex =
      apollo.DeployFact(TraceReplayHook(trace, "hacc", 0), deployment);
  apollo.RunFor(duration);

  auto stream = apollo.broker().GetTopic("hacc").value();
  HaccRun run;
  Series truth;
  for (TimeNs t = 0; t <= duration; t += Seconds(1)) {
    truth.push_back(trace.ValueAt(t));
    auto entry = stream->LatestAtOrBefore(t);
    run.reconstructed.push_back(entry.has_value() ? entry->value.value
                                                  : trace.ValueAt(0));
  }
  run.hook_calls = (*vertex)->stats().hook_calls;
  run.predictions = (*vertex)->stats().predictions;
  run.cost = static_cast<double>(run.hook_calls) /
             static_cast<double>(duration / Seconds(1) + 1);
  run.rmse_bytes = RootMeanSquaredError(truth, run.reconstructed);
  return run;
}

inline void RunHaccFigure(const char* figure, bool irregular) {
  const TimeNs duration = Seconds(1800);
  HaccTraceConfig config;
  config.irregular = irregular;
  config.duration = duration;
  const CapacityTrace trace = MakeHaccCapacityTrace(config);

  delphi::DelphiConfig delphi_config;
  delphi_config.feature_config.train_length = 2048;
  delphi_config.feature_config.epochs = 40;
  delphi_config.combiner_epochs = 60;
  const delphi::DelphiModel model =
      delphi::DelphiModel::Train(delphi_config);

  PrintHeader(figure,
              std::string("capacity tracking on the ") +
                  (irregular ? "irregular" : "regular") +
                  " HACC workload: 1s baseline vs adaptive vs "
                  "adaptive+Delphi");

  const HaccRun baseline =
      RunHaccSetup(trace, duration, "fixed", false, nullptr);
  const HaccRun adaptive =
      RunHaccSetup(trace, duration, "complex_aimd", false, nullptr);
  const HaccRun with_delphi =
      RunHaccSetup(trace, duration, "complex_aimd", true, &model);

  PrintRow({"setup", "hook_calls", "cost", "predictions", "rmse(KB)"});
  auto row = [](const char* label, const HaccRun& run) {
    PrintRow({label, std::to_string(run.hook_calls), Fmt("%.3f", run.cost),
              std::to_string(run.predictions),
              Fmt("%.2f", run.rmse_bytes / 1e3)});
  };
  row("baseline 1s", baseline);
  row("adaptive", adaptive);
  row("adaptive+delphi", with_delphi);

  // Capacity-over-time excerpt (sub-figure (a)): one sample per minute.
  std::printf("\ncapacity over time (GB, 1/min samples)\n");
  PrintRow({"t(min)", "truth", "adaptive", "adaptive+delphi"});
  for (int minute = 0; minute <= 30; minute += 5) {
    const std::size_t idx = static_cast<std::size_t>(minute) * 60;
    PrintRow({std::to_string(minute),
              Fmt("%.6f", trace.ValueAt(Seconds(minute * 60)) / 1e9),
              Fmt("%.6f", adaptive.reconstructed[idx] / 1e9),
              Fmt("%.6f", with_delphi.reconstructed[idx] / 1e9)});
  }
  // Optional CSV dump for external plotting (set APOLLO_CSV_DIR).
  const std::string csv_dir = CsvDirFromEnv();
  if (!csv_dir.empty()) {
    Series truth;
    for (TimeNs t = 0; t <= duration; t += Seconds(1)) {
      truth.push_back(trace.ValueAt(t));
    }
    const std::string path =
        csv_dir + (irregular ? "/fig9_series.csv" : "/fig10_series.csv");
    Status written = WriteSeriesCsv(
        path, {"truth", "baseline_1s", "adaptive", "adaptive_delphi"},
        {truth, baseline.reconstructed, adaptive.reconstructed,
         with_delphi.reconstructed});
    std::printf("csv: %s (%s)\n", path.c_str(),
                written.ok() ? "written" : written.ToString().c_str());
  }

  std::printf(
      "\npaper shape: adaptive+Delphi tracks the 1s baseline at a fraction "
      "of the hook-call cost\n");
}

}  // namespace apollo::bench
