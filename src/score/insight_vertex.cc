#include "score/insight_vertex.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
    : Vertex(broker,
             {.topic = std::move(config.topic),
              .node = config.node,
              .queue_capacity = config.queue_capacity,
              .publish_only_on_change = config.publish_only_on_change,
              .prediction_granularity = config.prediction_granularity,
              .publish_retry = config.publish_retry},
             delphi, archiver),
      fn_(std::move(fn)),
      upstream_(std::move(config.upstream)),
      pull_interval_(config.pull_interval),
      latest_(upstream_.size(), kNan) {}

InsightVertex::~InsightVertex() { Undeploy(); }

Status InsightVertex::Prepare() {
  if (upstream_.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "insight vertex needs at least one upstream: " + topic());
  }
  cursors_.assign(upstream_.size(), 0);
  upstream_handles_.clear();
  for (const std::string& topic : upstream_) {
    auto upstream = broker_.Resolve(topic);
    upstream_handles_.push_back(upstream.ok() ? *std::move(upstream)
                                              : TopicHandle());
  }
  return Status::Ok();
}

TimeNs InsightVertex::Produce(TimeNs now) {
  {
    ScopedTimer timer(stats_.consume_time_ns);
    for (std::size_t i = 0; i < upstream_.size(); ++i) {
      TopicHandle& upstream = upstream_handles_[i];
      if (!upstream.valid()) {
        auto resolved = broker_.Resolve(upstream_[i]);
        if (!resolved.ok()) continue;  // upstream not created yet
        upstream = *std::move(resolved);
      }
      auto fetched = broker_.FetchIntoWithRetry(
          upstream, node(), cursors_[i], fetch_scratch_, SIZE_MAX,
          settings_.publish_retry);
      if (!fetched.ok()) continue;  // cursor unmoved; next pull re-reads
      if (*fetched > 0) latest_[i] = fetch_scratch_.back().value.value;
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
  // Every pull publishes a value the InsightFn could compute; change
  // suppression drops a repeat.
  if (!std::isnan(value)) {
    PublishSample(broker_.clock().Now(), value, Provenance::kMeasured);
  }
  return pull_interval_;
}

}  // namespace apollo
