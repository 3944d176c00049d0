#include "score/vertex.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apollo {

Vertex::Vertex(Broker& broker, Settings settings,
               const delphi::DelphiModel* delphi, Archiver<Sample>* archiver)
    : broker_(broker), settings_(std::move(settings)), archiver_(archiver) {
  if (delphi != nullptr && settings_.prediction_granularity > 0) {
    predictor_ = std::make_unique<delphi::StreamingPredictor>(*delphi);
  }
}

const std::vector<std::string>& Vertex::upstream() const {
  static const std::vector<std::string> kNone;
  return kNone;
}

Status Vertex::Deploy(EventLoop& loop) {
  if (deployed_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "vertex already deployed: " + topic());
  }
  Status prepared = Prepare();
  if (!prepared.ok()) return prepared;
  if (!broker_.HasTopic(topic())) {
    auto created = broker_.CreateTopic(topic(), node(),
                                       settings_.queue_capacity, archiver_);
    if (!created.ok()) return created.status();
  }
  auto handle = broker_.Resolve(topic());
  if (!handle.ok()) return handle.status();
  handle_ = *std::move(handle);
  loop_ = &loop;
  deployed_ = true;
  StartTimer();
  return Status::Ok();
}

void Vertex::Undeploy() {
  if (!deployed_) return;
  loop_->CancelTimer(timer_);
  deployed_ = false;
  loop_ = nullptr;
}

void Vertex::StartTimer() {
  next_produce_time_ = loop_->clock().Now();
  last_fire_.store(next_produce_time_, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  timer_ = loop_->AddTimer(0, [this](TimeNs now) { return OnTimer(now); });
}

TimeNs Vertex::ExpectedFireInterval() const {
  TimeNs interval = ProduceInterval();
  if (predictor_ != nullptr) {
    interval = std::min(interval, settings_.prediction_granularity);
  }
  return interval;
}

void Vertex::MarkCrashed() {
  crashed_.store(true, std::memory_order_release);
  ++stats_.crashes;
  GlobalTelemetry().vertex_crashes.Inc();
  if (handle_.valid() && !handle_.stream()->SetDegraded(true)) {
    GlobalTelemetry().degraded_marked.Inc();
  }
}

void Vertex::ForceCrash() {
  if (!deployed_ || crashed()) return;
  loop_->CancelTimer(timer_);
  MarkCrashed();
}

Status Vertex::Restart() {
  if (!deployed_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of undeployed vertex: " + topic());
  }
  if (!crashed()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of live vertex: " + topic());
  }
  // Forget the pre-crash value so change suppression cannot swallow the
  // first post-restart sample (which also clears the degraded flag).
  last_published_.reset();
  ++stats_.restarts;
  StartTimer();
  return Status::Ok();
}

TimeNs Vertex::OnTimer(TimeNs now) {
  last_fire_.store(now, std::memory_order_release);
  if (FaultInjector* injector = broker_.fault_injector()) {
    if (auto crash = injector->Evaluate(FaultSite::kVertexPoll, topic());
        crash.has_value() && crash->fails()) {
      MarkCrashed();
      return kStopTimer;
    }
    if (auto stall = injector->Evaluate(FaultSite::kVertexStall, topic());
        stall.has_value() && stall->fails()) {
      return kStopTimer;  // silent: supervisor stall detection catches it
    }
  }
  if (now >= next_produce_time_) {
    const TimeNs interval = Produce(now);
    next_produce_time_ = now + interval;
    if (predictor_ != nullptr && settings_.prediction_granularity < interval) {
      return settings_.prediction_granularity;
    }
    return interval;
  }
  // Between measured values: emit a predicted sample.
  DoPrediction(now);
  return std::min(settings_.prediction_granularity, next_produce_time_ - now);
}

void Vertex::DoPrediction(TimeNs now) {
  if (predictor_ == nullptr) return;
  TRACE_SPAN("delphi.predict", topic());
  static obs::Counter predictions = obs::MetricsRegistry::Global().GetCounter(
      "apollo_delphi_predictions_total",
      "Delphi PredictNext calls that produced a value");
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

void Vertex::PublishSample(TimeNs now, double value, Provenance provenance) {
  if (settings_.publish_only_on_change && last_published_.has_value() &&
      *last_published_ == value) {
    ++stats_.suppressed;
    return;
  }
  ScopedTimer timer(stats_.publish_time_ns);
  auto published =
      broker_.PublishWithRetry(handle_, node(), now,
                               Sample{now, value, provenance},
                               settings_.publish_retry);
  if (!published.ok()) {
    // Surfaced, counted, and repaired on the next value: last_published_
    // is left untouched, so change suppression cannot treat the lost tuple
    // as delivered.
    ++stats_.publish_failures;
    APOLLO_LOG(ERROR) << "publish failed on " << topic() << ": "
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
