// Insight Vertex — SCoRe's inner/sink vertices (§3.1, §3.2).
//
// Its measured value comes from one or more upstream streams — Facts or
// other Insights — pulled every pull_interval (the paper's "pull
// mechanism" design note) and combined by an InsightFn from each
// upstream's latest value. The lifecycle it shares with FactVertex
// (stream, timer, Delphi fill-in between pulls, publishing, crash and
// restart) is the Vertex base in score/vertex.h.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "score/vertex.h"

namespace apollo {

// Combines the most recent value of each upstream topic (ordered as in
// `upstream`) into the insight value. Entries without data yet are NaN.
using InsightFn =
    std::function<double(const std::vector<double>& latest, TimeNs now)>;

// Common aggregations.
InsightFn SumInsight();
InsightFn MeanInsight();
InsightFn MinInsight();
InsightFn MaxInsight();

struct InsightVertexConfig {
  std::string topic;
  NodeId node = kLocalNode;
  std::vector<std::string> upstream;
  TimeNs pull_interval = Seconds(1);
  std::size_t queue_capacity = 4096;
  bool publish_only_on_change = true;
  TimeNs prediction_granularity = 0;
  // Publish retry policy; upstream fetches retry with the same policy.
  RetryPolicy publish_retry;
};

class InsightVertex : public Vertex {
 public:
  InsightVertex(Broker& broker, InsightFn fn, InsightVertexConfig config,
                const delphi::DelphiModel* delphi = nullptr,
                Archiver<Sample>* archiver = nullptr);

  ~InsightVertex() override;

  const std::vector<std::string>& upstream() const override {
    return upstream_;
  }

  // Latest computed insight value (NaN until all upstreams have produced
  // at least one value — or a partial value if the InsightFn tolerates
  // NaNs).
  std::optional<double> LatestValue() const { return last_published_; }

 private:
  // Pulls every upstream's new entries (consume time), applies the
  // InsightFn (build time), and publishes the result unless it is NaN.
  TimeNs Produce(TimeNs now) override;
  TimeNs ProduceInterval() const override { return pull_interval_; }
  // Rejects an empty upstream list, starts every cursor at 0 so existing
  // upstream history is consumed, and resolves the upstream handles.
  Status Prepare() override;

  InsightFn fn_;
  std::vector<std::string> upstream_;
  TimeNs pull_interval_;
  // Parallel to upstream_. An upstream that does not exist yet stays an
  // invalid handle and resolves on a later pull.
  std::vector<TopicHandle> upstream_handles_;
  std::vector<std::uint64_t> cursors_;
  std::vector<StreamEntry<Sample>> fetch_scratch_;
  std::vector<double> latest_;
};

}  // namespace apollo
