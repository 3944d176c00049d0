#include "score/fact_vertex.h"

namespace apollo {

FactVertex::FactVertex(Broker& broker, MonitorHook hook,
                       std::unique_ptr<IntervalController> controller,
                       FactVertexConfig config,
                       const delphi::DelphiModel* delphi,
                       Archiver<Sample>* archiver)
    : Vertex(broker,
             {.topic = config.topic.empty() ? hook.metric_name
                                            : std::move(config.topic),
              .node = config.node,
              .queue_capacity = config.queue_capacity,
              .publish_only_on_change = config.publish_only_on_change,
              .prediction_granularity = config.prediction_granularity,
              .publish_retry = config.publish_retry},
             delphi, archiver),
      hook_(std::move(hook)),
      controller_(std::move(controller)) {}

FactVertex::~FactVertex() { Undeploy(); }

TimeNs FactVertex::Produce(TimeNs /*now*/) {
  double value;
  {
    ScopedTimer timer(stats_.hook_time_ns);
    value = hook_.Invoke(broker_.clock());
    ++stats_.hook_calls;
  }
  {
    // The Fact Builder step: convert the Metric into a Fact (tuple build).
    ScopedTimer timer(stats_.build_time_ns);
    if (predictor_ != nullptr) predictor_->Observe(value);
  }
  PublishSample(broker_.clock().Now(), value, Provenance::kMeasured);
  ScopedTimer timer(stats_.other_time_ns);
  return controller_->OnSample(value);
}

}  // namespace apollo
