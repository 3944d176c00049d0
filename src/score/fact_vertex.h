// Fact Vertex — a SCoRe source (§3.1, §3.2).
//
// Its measured value comes from a Monitor Hook, polled at the interval an
// adaptive IntervalController picks after each sample. The lifecycle it
// shares with InsightVertex (stream, timer, Delphi fill-in between polls,
// publishing, crash and restart) is the Vertex base in score/vertex.h.
#pragma once

#include <memory>
#include <string>

#include "adaptive/interval_controller.h"
#include "score/monitor_hook.h"
#include "score/vertex.h"

namespace apollo {

struct FactVertexConfig {
  std::string topic;  // stream name; defaults to the hook's metric name
  NodeId node = kLocalNode;
  std::size_t queue_capacity = 4096;
  // "Facts are added only if there is a change from their previous value."
  bool publish_only_on_change = true;
  // Delphi fill-in period between polls; 0 disables prediction even when a
  // model is supplied.
  TimeNs prediction_granularity = 0;
  // Publish retry policy (broker-level exponential backoff). An exhausted
  // retry budget is surfaced in stats().publish_failures and telemetry.
  RetryPolicy publish_retry;
};

class FactVertex : public Vertex {
 public:
  // `delphi` may be null (no prediction). The vertex clones the model so
  // inference state is private.
  FactVertex(Broker& broker, MonitorHook hook,
             std::unique_ptr<IntervalController> controller,
             FactVertexConfig config,
             const delphi::DelphiModel* delphi = nullptr,
             Archiver<Sample>* archiver = nullptr);

  ~FactVertex() override;

  VertexStats& mutable_stats() { return stats_; }
  TimeNs CurrentInterval() const { return controller_->CurrentInterval(); }
  const char* ControllerName() const { return controller_->Name(); }

 private:
  // Invokes the hook (hook time), feeds the predictor (build time),
  // publishes, and asks the controller for the next interval (other time).
  TimeNs Produce(TimeNs now) override;
  TimeNs ProduceInterval() const override { return CurrentInterval(); }

  MonitorHook hook_;
  std::unique_ptr<IntervalController> controller_;
};

}  // namespace apollo
