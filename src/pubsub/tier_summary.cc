#include "pubsub/tier_summary.h"

#include <algorithm>
#include <cmath>

namespace apollo {

TierSummaryBuilder::TierSummaryBuilder(const TierSummary& prefix) {
  summary_ = prefix;
  summary_.sum = {};
  sum_.Merge(prefix.sum);
}

void TierSummaryBuilder::Add(std::uint64_t id, const Sample& sample) {
  TierSummary& s = summary_;
  const TimeNs timestamp = sample.timestamp;
  if (s.rows == 0) {
    s.min_ts = s.max_ts = timestamp;
    s.first_id = id;
    s.latest = sample;
  }
  ++s.rows;
  s.min_ts = std::min(s.min_ts, timestamp);
  s.max_ts = std::max(s.max_ts, timestamp);
  s.last_id = id;
  if (timestamp >= s.latest.timestamp) s.latest = sample;
  const double v = sample.value;
  sum_.Add(v);
  if (!std::isnan(v)) {
    if (std::isnan(s.min_value) || OrdersBelow(v, s.min_value)) {
      s.min_value = v;
    }
    if (std::isnan(s.max_value) || OrdersBelow(s.max_value, v)) {
      s.max_value = v;
    }
  }
}

TierSummary TierSummaryBuilder::Finish() const {
  TierSummary summary = summary_;
  summary.sum = sum_.Pack();
  return summary;
}

}  // namespace apollo
