// TierSummary: what a run of history rows holds, so that an aggregate can
// merge it instead of reading the rows again (small materialized
// aggregates: G. Moerkotte, "Small Materialized Aggregates: A Light Weight
// Index Structure for Data Warehousing", VLDB 1998). Both history tiers
// keep them: a cold block has one (coldtier/cold_tier.h), and so does each
// WAL segment's verified prefix (pubsub/archiver.h). Either is built only
// by a read that has just checked those rows against their CRCs, never by
// the write path, with the one TierSummaryBuilder below.
//
// Values follow common/exact_sum.h's rules: `sum` is exact, and min/max
// skip NaN (NaN when every value is NaN) and order -0.0 below +0.0.
// `latest` is the row the scan's `latest` rule keeps: the last one with
// the greatest timestamp.
#pragma once

#include <cstdint>
#include <limits>

#include "common/clock.h"
#include "common/exact_sum.h"
#include "pubsub/telemetry.h"

namespace apollo {

struct TierSummary {
  std::uint64_t rows = 0;
  ExactSum::Packed sum;
  double min_value = std::numeric_limits<double>::quiet_NaN();
  double max_value = std::numeric_limits<double>::quiet_NaN();
  TimeNs min_ts = 0;  // the bounds the tiers narrow by and WHERE tests
  TimeNs max_ts = 0;
  // The first row in stored order (the executor's cold cap when this
  // summary is the first WAL piece a query keeps) and the last.
  std::uint64_t first_id = 0;
  std::uint64_t last_id = 0;
  Sample latest;
};

// A history tier keeps a row stamped at or before `to_ts` whose id is below
// `below_id`, the id of the warmer tier's first row. A row keeps its id
// through eviction, compaction, Recover() and resync, so the id alone
// tells a row the warmer tier holds, whatever order the timestamps came
// in. Tiers prune on [from_ts, to_ts].
struct TierCap {
  TimeNs to_ts = 0;
  std::uint64_t below_id = 0;

  // Every row stamped at or before `to_ts` whose id is below UINT64_MAX.
  static TierCap Through(TimeNs to_ts) {
    return TierCap{to_ts, std::numeric_limits<std::uint64_t>::max()};
  }
  bool Keeps(TimeNs row_ts, std::uint64_t row_id) const {
    return row_ts <= to_ts && row_id < below_id;
  }
};

// Builds a TierSummary from rows added in stored order, or continues one
// with the rows stored after it.
class TierSummaryBuilder {
 public:
  TierSummaryBuilder() = default;
  explicit TierSummaryBuilder(const TierSummary& prefix);

  void Add(std::uint64_t id, const Sample& sample);
  std::uint64_t rows() const { return summary_.rows; }
  // The summary of every row added, the prefix's included; rows() > 0.
  TierSummary Finish() const;

 private:
  TierSummary summary_;  // all but `sum`
  ExactSum sum_;
};

}  // namespace apollo
