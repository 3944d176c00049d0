#include "score/fact_vertex.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apollo {

FactVertex::FactVertex(Broker& broker, MonitorHook hook,
                       std::unique_ptr<IntervalController> controller,
                       FactVertexConfig config,
                       const delphi::DelphiModel* delphi,
                       Archiver<Sample>* archiver)
    : broker_(broker),
      hook_(std::move(hook)),
      controller_(std::move(controller)),
      config_(std::move(config)),
      archiver_(archiver) {
  if (config_.topic.empty()) config_.topic = hook_.metric_name;
  if (delphi != nullptr && config_.prediction_granularity > 0) {
    predictor_ = std::make_unique<delphi::StreamingPredictor>(*delphi);
  }
}

FactVertex::~FactVertex() { Undeploy(); }

Status FactVertex::Deploy(EventLoop& loop) {
  if (deployed_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "vertex already deployed: " + config_.topic);
  }
  if (!broker_.HasTopic(config_.topic)) {
    auto created = broker_.CreateTopic(config_.topic, config_.node,
                                       config_.queue_capacity, archiver_);
    if (!created.ok()) return created.status();
  }
  auto handle = broker_.Resolve(config_.topic);
  if (!handle.ok()) return handle.status();
  handle_ = *std::move(handle);
  loop_ = &loop;
  next_poll_time_ = loop.clock().Now();
  last_fire_.store(next_poll_time_, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  timer_ = loop.AddTimer(0, [this](TimeNs now) { return OnTimer(now); });
  deployed_ = true;
  return Status::Ok();
}

void FactVertex::Undeploy() {
  if (!deployed_) return;
  loop_->CancelTimer(timer_);
  deployed_ = false;
  loop_ = nullptr;
}

TimeNs FactVertex::ExpectedFireInterval() const {
  TimeNs interval = controller_->CurrentInterval();
  if (predictor_ != nullptr && config_.prediction_granularity > 0) {
    interval = std::min(interval, config_.prediction_granularity);
  }
  return interval;
}

void FactVertex::MarkCrashed() {
  crashed_.store(true, std::memory_order_release);
  ++stats_.crashes;
  GlobalTelemetry().vertex_crashes.Inc();
  if (handle_.valid() && !handle_.stream()->SetDegraded(true)) {
    GlobalTelemetry().degraded_marked.Inc();
  }
}

void FactVertex::ForceCrash() {
  if (!deployed_ || crashed()) return;
  loop_->CancelTimer(timer_);
  MarkCrashed();
}

Status FactVertex::Restart() {
  if (!deployed_ || loop_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of undeployed vertex: " + config_.topic);
  }
  if (!crashed()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of live vertex: " + config_.topic);
  }
  next_poll_time_ = loop_->clock().Now();
  last_fire_.store(next_poll_time_, std::memory_order_release);
  // Forget the pre-crash value so change suppression cannot swallow the
  // first post-restart sample (which also clears the degraded flag).
  last_published_.reset();
  crashed_.store(false, std::memory_order_release);
  ++stats_.restarts;
  timer_ = loop_->AddTimer(0, [this](TimeNs now) { return OnTimer(now); });
  return Status::Ok();
}

TimeNs FactVertex::OnTimer(TimeNs now) {
  last_fire_.store(now, std::memory_order_release);
  if (FaultInjector* injector = broker_.fault_injector()) {
    if (auto crash = injector->Evaluate(FaultSite::kVertexPoll, config_.topic);
        crash.has_value() && crash->fails()) {
      MarkCrashed();
      return kStopTimer;
    }
    if (auto stall =
            injector->Evaluate(FaultSite::kVertexStall, config_.topic);
        stall.has_value() && stall->fails()) {
      return kStopTimer;  // silent: supervisor stall detection catches it
    }
  }
  if (now >= next_poll_time_) {
    const TimeNs interval = DoRealPoll(now);
    next_poll_time_ = now + interval;
    if (predictor_ != nullptr && config_.prediction_granularity > 0 &&
        config_.prediction_granularity < interval) {
      return config_.prediction_granularity;
    }
    return interval;
  }
  // Between polls: emit a predicted sample.
  DoPrediction(now);
  const TimeNs until_poll = next_poll_time_ - now;
  return std::min(config_.prediction_granularity, until_poll);
}

TimeNs FactVertex::DoRealPoll(TimeNs /*now*/) {
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

  TimeNs interval;
  {
    ScopedTimer timer(stats_.other_time_ns);
    interval = controller_->OnSample(value);
  }
  return interval;
}

void FactVertex::DoPrediction(TimeNs now) {
  if (predictor_ == nullptr) return;
  (void)now;  // kept for symmetry; publish stamps the clock's Now()
  TRACE_SPAN("delphi.predict", config_.topic);
  static obs::Counter predictions = obs::MetricsRegistry::Global().GetCounter(
      "apollo_delphi_predictions_total", "Delphi PredictNext calls that produced a value");
  static obs::Histogram predict_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "apollo_delphi_predict_duration_ns", "Delphi PredictNext latency");
  const std::int64_t predict_start = stats_.predict_time_ns;
  std::optional<double> predicted;
  {
    ScopedTimer timer(stats_.predict_time_ns);
    predicted = predictor_->PredictNext();
    if (predicted.has_value()) {
      predictor_->ObservePredicted(*predicted);
      ++stats_.predictions;
    }
  }
  predict_hist.Record(stats_.predict_time_ns - predict_start);
  if (predicted.has_value()) {
    predictions.Inc();
    PublishSample(now, *predicted, Provenance::kPredicted);
  }
}

void FactVertex::PublishSample(TimeNs now, double value,
                               Provenance provenance) {
  if (config_.publish_only_on_change && last_published_.has_value() &&
      *last_published_ == value) {
    ++stats_.suppressed;
    return;
  }
  ScopedTimer timer(stats_.publish_time_ns);
  auto published =
      broker_.PublishWithRetry(handle_, config_.node, now,
                               Sample{now, value, provenance},
                               config_.publish_retry);
  if (!published.ok()) {
    // Surfaced, counted, and repaired on the next poll: last_published_ is
    // left untouched, so change suppression cannot treat the lost tuple as
    // delivered.
    ++stats_.publish_failures;
    APOLLO_LOG(ERROR) << "publish failed on " << config_.topic << ": "
                      << published.error().ToString();
    return;
  }
  last_published_ = value;
  ++stats_.published;
  // Fresh measured data ends degraded mode (entered when this vertex
  // crashed or stalled).
  if (provenance == Provenance::kMeasured && handle_.valid() &&
      handle_.stream()->degraded() && !crashed()) {
    if (handle_.stream()->SetDegraded(false)) {
      GlobalTelemetry().degraded_cleared.Inc();
    }
  }
}

}  // namespace apollo
