#include "score/insight_vertex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace apollo {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}

InsightFn SumInsight() {
  return [](const std::vector<double>& latest, TimeNs) {
    double sum = 0.0;
    for (double v : latest) {
      if (std::isnan(v)) return kNan;
      sum += v;
    }
    return sum;
  };
}

InsightFn MeanInsight() {
  return [](const std::vector<double>& latest, TimeNs) {
    if (latest.empty()) return kNan;
    double sum = 0.0;
    for (double v : latest) {
      if (std::isnan(v)) return kNan;
      sum += v;
    }
    return sum / static_cast<double>(latest.size());
  };
}

InsightFn MinInsight() {
  return [](const std::vector<double>& latest, TimeNs) {
    double best = std::numeric_limits<double>::infinity();
    for (double v : latest) {
      if (std::isnan(v)) return kNan;
      best = std::min(best, v);
    }
    return latest.empty() ? kNan : best;
  };
}

InsightFn MaxInsight() {
  return [](const std::vector<double>& latest, TimeNs) {
    double best = -std::numeric_limits<double>::infinity();
    for (double v : latest) {
      if (std::isnan(v)) return kNan;
      best = std::max(best, v);
    }
    return latest.empty() ? kNan : best;
  };
}

InsightVertex::InsightVertex(Broker& broker, InsightFn fn,
                             InsightVertexConfig config,
                             const delphi::DelphiModel* delphi,
                             Archiver<Sample>* archiver)
    : broker_(broker),
      fn_(std::move(fn)),
      config_(std::move(config)),
      archiver_(archiver),
      latest_(config_.upstream.size(), kNan) {
  if (delphi != nullptr && config_.prediction_granularity > 0) {
    predictor_ = std::make_unique<delphi::StreamingPredictor>(*delphi);
  }
}

InsightVertex::~InsightVertex() { Undeploy(); }

Status InsightVertex::Deploy(EventLoop& loop) {
  if (deployed_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "vertex already deployed: " + config_.topic);
  }
  if (config_.upstream.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "insight vertex needs at least one upstream: " +
                      config_.topic);
  }
  if (!broker_.HasTopic(config_.topic)) {
    auto created = broker_.CreateTopic(config_.topic, config_.node,
                                       config_.queue_capacity, archiver_);
    if (!created.ok()) return created.status();
  }
  auto handle = broker_.Resolve(config_.topic);
  if (!handle.ok()) return handle.status();
  handle_ = *std::move(handle);
  // Start cursors at 0 so any pre-existing upstream history is consumed.
  // Upstreams that do not exist yet stay as invalid handles and resolve on
  // a later pull.
  cursors_.assign(config_.upstream.size(), 0);
  upstream_handles_.clear();
  for (const std::string& topic : config_.upstream) {
    auto upstream = broker_.Resolve(topic);
    upstream_handles_.push_back(upstream.ok() ? *std::move(upstream)
                                              : TopicHandle());
  }

  loop_ = &loop;
  next_pull_time_ = loop.clock().Now();
  last_fire_.store(next_pull_time_, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  timer_ = loop.AddTimer(0, [this](TimeNs now) { return OnTimer(now); });
  deployed_ = true;
  return Status::Ok();
}

void InsightVertex::Undeploy() {
  if (!deployed_) return;
  loop_->CancelTimer(timer_);
  deployed_ = false;
  loop_ = nullptr;
}

TimeNs InsightVertex::ExpectedFireInterval() const {
  TimeNs interval = config_.pull_interval;
  if (predictor_ != nullptr && config_.prediction_granularity > 0) {
    interval = std::min(interval, config_.prediction_granularity);
  }
  return interval;
}

void InsightVertex::MarkCrashed() {
  crashed_.store(true, std::memory_order_release);
  ++stats_.crashes;
  GlobalTelemetry().vertex_crashes.Inc();
  if (handle_.valid() && !handle_.stream()->SetDegraded(true)) {
    GlobalTelemetry().degraded_marked.Inc();
  }
}

void InsightVertex::ForceCrash() {
  if (!deployed_ || crashed()) return;
  loop_->CancelTimer(timer_);
  MarkCrashed();
}

Status InsightVertex::Restart() {
  if (!deployed_ || loop_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of undeployed vertex: " + config_.topic);
  }
  if (!crashed()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "restart of live vertex: " + config_.topic);
  }
  next_pull_time_ = loop_->clock().Now();
  last_fire_.store(next_pull_time_, std::memory_order_release);
  last_published_.reset();  // see FactVertex::Restart
  crashed_.store(false, std::memory_order_release);
  ++stats_.restarts;
  timer_ = loop_->AddTimer(0, [this](TimeNs now) { return OnTimer(now); });
  return Status::Ok();
}

TimeNs InsightVertex::OnTimer(TimeNs now) {
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
  if (now >= next_pull_time_) {
    DoPull(now);
    next_pull_time_ = now + config_.pull_interval;
    if (predictor_ != nullptr &&
        config_.prediction_granularity < config_.pull_interval) {
      return config_.prediction_granularity;
    }
    return config_.pull_interval;
  }
  DoPrediction(now);
  return std::min(config_.prediction_granularity, next_pull_time_ - now);
}

void InsightVertex::DoPull(TimeNs now) {
  bool any_update = false;
  {
    ScopedTimer timer(stats_.consume_time_ns);
    for (std::size_t i = 0; i < config_.upstream.size(); ++i) {
      TopicHandle& upstream = upstream_handles_[i];
      if (!upstream.valid()) {
        auto resolved = broker_.Resolve(config_.upstream[i]);
        if (!resolved.ok()) continue;  // upstream not created yet
        upstream = *std::move(resolved);
      }
      auto fetched =
          broker_.FetchIntoWithRetry(upstream, config_.node, cursors_[i],
                                     fetch_scratch_, SIZE_MAX,
                                     config_.publish_retry);
      if (!fetched.ok()) continue;  // cursor unmoved; next pull re-reads
      if (*fetched > 0) {
        latest_[i] = fetch_scratch_.back().value.value;
        any_update = true;
      }
    }
  }
  double value;
  {
    ScopedTimer timer(stats_.build_time_ns);
    value = fn_(latest_, now);
    if (predictor_ != nullptr && !std::isnan(value)) {
      predictor_->Observe(value);
    }
  }
  if (std::isnan(value)) return;
  // Publish even without upstream updates on the first computation; after
  // that, only when something changed (change suppression handles it).
  (void)any_update;
  PublishSample(broker_.clock().Now(), value, Provenance::kMeasured);
}

void InsightVertex::DoPrediction(TimeNs now) {
  if (predictor_ == nullptr) return;
  std::optional<double> predicted;
  {
    ScopedTimer timer(stats_.predict_time_ns);
    predicted = predictor_->PredictNext();
    if (predicted.has_value()) {
      predictor_->ObservePredicted(*predicted);
      ++stats_.predictions;
    }
  }
  if (predicted.has_value()) {
    PublishSample(now, *predicted, Provenance::kPredicted);
  }
}

void InsightVertex::PublishSample(TimeNs now, double value,
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
    ++stats_.publish_failures;
    APOLLO_LOG(ERROR) << "publish failed on " << config_.topic << ": "
                      << published.error().ToString();
    return;
  }
  last_published_ = value;
  ++stats_.published;
  if (provenance == Provenance::kMeasured && handle_.valid() &&
      handle_.stream()->degraded() && !crashed()) {
    if (handle_.stream()->SetDegraded(false)) {
      GlobalTelemetry().degraded_cleared.Inc();
    }
  }
}

}  // namespace apollo
