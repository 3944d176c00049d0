#include "aqe/executor.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "coldtier/cold_tier.h"
#include "common/exact_sum.h"
#include "obs/trace.h"

namespace apollo::aqe {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Parsed plans cached by query text; the cache resets when it fills.
constexpr std::size_t kPlanCacheCapacity = 1024;

// A scan's block width: RowFilter tests up to this many rows into one
// bitmask, and the consumers visit its set bits.
constexpr std::size_t kBlock = 64;

double CellOf(Column column, const Sample& sample) {
  switch (column) {
    case Column::kTimestamp:
      return static_cast<double>(sample.timestamp);
    case Column::kMetric:
      return sample.value;
    case Column::kPredicted:
      return sample.provenance == Provenance::kPredicted ? 1.0 : 0.0;
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

// Bits 0 to n - 1, for 0 < n <= kBlock.
std::uint64_t LowBits(std::size_t n) {
  return n == kBlock ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

// Bit i set when the cell of row at + i of `rows` lies in [lo, hi], for
// i < n <= kBlock; a NaN cell lies in no interval. One pass over one
// column with no branch per row; the values column, which most WHERE
// clauses and ORDER BY keys test, is compared two rows per SSE2 compare,
// eight rows per step.
std::uint64_t InInterval(Column column, const ColumnSpan& rows, std::size_t at,
                         std::size_t n, double lo, double hi) {
  const auto in = [lo, hi](double v) {
    return static_cast<std::uint64_t>((v >= lo) & (v <= hi));
  };
  std::uint64_t mask = 0;
  switch (column) {
    case Column::kTimestamp: {
      const TimeNs* ts = rows.ts + at;
      for (std::size_t i = 0; i < n; ++i) {
        mask |= in(static_cast<double>(ts[i])) << i;
      }
      break;
    }
    case Column::kMetric: {
      const double* value = rows.values + at;
      std::size_t i = 0;
#if defined(__SSE2__)
      const __m128d vlo = _mm_set1_pd(lo);
      const __m128d vhi = _mm_set1_pd(hi);
      // The two bits of rows p[0] and p[1].
      const auto pair = [&vlo, &vhi](const double* p) {
        const __m128d v = _mm_loadu_pd(p);
        return static_cast<std::uint64_t>(_mm_movemask_pd(
            _mm_and_pd(_mm_cmpge_pd(v, vlo), _mm_cmple_pd(v, vhi))));
      };
      for (; i + 8 <= n; i += 8) {
        const double* p = value + i;
        mask |= (pair(p) | pair(p + 2) << 2 | pair(p + 4) << 4 |
                 pair(p + 6) << 6)
                << i;
      }
#endif
      for (; i < n; ++i) mask |= in(value[i]) << i;
      break;
    }
    case Column::kPredicted: {
      const Provenance* provenance = rows.provenance + at;
      for (std::size_t i = 0; i < n; ++i) {
        mask |= in(provenance[i] == Provenance::kPredicted ? 1.0 : 0.0) << i;
      }
      break;
    }
    case Column::kStar:
      if (in(0.0) != 0) mask = LowBits(n);
      break;
  }
  return mask;
}

// Calls fn(i) for each set bit i of `mask`, lowest first.
template <typename Fn>
void ForEachBit(std::uint64_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<std::size_t>(std::countr_zero(mask)));
  }
}

// `v`, integral or infinite, as a TimeNs saturated at the int64 limits.
TimeNs SaturatedTimeNs(double v) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (v >= kTwo63) return std::numeric_limits<TimeNs>::max();
  if (v <= -kTwo63) return std::numeric_limits<TimeNs>::min();
  return static_cast<TimeNs>(v);
}

// A branch's WHERE clause folded into one closed interval [lo, hi] per
// compared column, plus the `!=` values. Match() equals the conjunction of
// the literal comparisons on every row, NaN cells and signed zeros
// included: for a non-NaN cell v, `v > x` is `v >= nextafter(x, +inf)` and
// `v < x` is `v <= nextafter(x, -inf)`; a NaN cell fails every interval and
// passes every `!=`. `> +inf`, `< -inf`, a NaN bound or an empty interval
// matches nothing.
class RowFilter {
 public:
  explicit RowFilter(const std::vector<Condition>& where) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Interval {
      double lo = -kInf;
      double hi = kInf;
      bool bounded = false;
    };
    Interval by_column[kColumns];
    for (const Condition& cond : where) {
      if (cond.op == CompareOp::kNe) {
        not_equal_.push_back(cond);
        continue;
      }
      Interval& in = by_column[static_cast<std::size_t>(cond.column)];
      in.bounded = true;
      const double x = cond.value;
      if (std::isnan(x) || (cond.op == CompareOp::kGt && x == kInf) ||
          (cond.op == CompareOp::kLt && x == -kInf)) {
        none_ = true;
        continue;
      }
      switch (cond.op) {
        case CompareOp::kGt:
          in.lo = std::max(in.lo, std::nextafter(x, kInf));
          break;
        case CompareOp::kGe:
          in.lo = std::max(in.lo, x);
          break;
        case CompareOp::kLt:
          in.hi = std::min(in.hi, std::nextafter(x, -kInf));
          break;
        case CompareOp::kLe:
          in.hi = std::min(in.hi, x);
          break;
        case CompareOp::kEq:
          in.lo = std::max(in.lo, x);
          in.hi = std::min(in.hi, x);
          break;
        case CompareOp::kNe:
          break;
      }
    }
    for (std::size_t c = 0; c < kColumns; ++c) {
      const Interval& in = by_column[c];
      if (!in.bounded) continue;
      if (in.lo > in.hi) none_ = true;
      ranges_[num_ranges_++] = Range{static_cast<Column>(c), in.lo, in.hi};
    }
    // Every int64 timestamp whose double cell can lie in the interval: one
    // adjacent double outward covers the rounding of timestamps beyond
    // 2^53, then the bounds round inward to whole TimeNs. For an integral
    // bound below 2^53 this is the bound itself.
    const Interval& ts =
        by_column[static_cast<std::size_t>(Column::kTimestamp)];
    from_ts_ = SaturatedTimeNs(std::ceil(std::nextafter(ts.lo, -kInf)));
    to_ts_ = SaturatedTimeNs(std::floor(std::nextafter(ts.hi, kInf)));
  }

  // Bit i set when row at + i of `rows` matches, for i < n <= kBlock: one
  // pass per compared column over its cells, no branch per row.
  std::uint64_t Match(const ColumnSpan& rows, std::size_t at,
                      std::size_t n) const {
    if (none_) return 0;
    std::uint64_t mask = LowBits(n);
    for (std::size_t r = 0; r < num_ranges_ && mask != 0; ++r) {
      mask &= InInterval(ranges_[r].column, rows, at, n, ranges_[r].lo,
                         ranges_[r].hi);
    }
    // v != x is v outside [x, x], NaN cells and NaN values included.
    for (const Condition& cond : not_equal_) {
      if (mask == 0) break;
      mask &= ~InInterval(cond.column, rows, at, n, cond.value, cond.value);
    }
    return mask;
  }

  // The timestamp range the ring, the WAL and the cold tier read. It only
  // pre-narrows: Match() still checks the timestamp of every row read.
  TimeNs from_ts() const { return from_ts_; }
  TimeNs to_ts() const { return to_ts_; }

  // True when every row whose timestamp cell lies in [lo, hi] matches: the
  // filter tests the timestamp alone, its interval holds [lo, hi], and no
  // `!=` value lies in it. Casting an int64 to double keeps its order, so
  // every row of a block whose timestamps span [lo, hi] has its cell there.
  bool CoversTimestamps(TimeNs lo, TimeNs hi) const {
    if (none_) return false;
    const double a = static_cast<double>(lo);
    const double b = static_cast<double>(hi);
    for (std::size_t i = 0; i < num_ranges_; ++i) {
      if (ranges_[i].column != Column::kTimestamp ||
          !(a >= ranges_[i].lo && b <= ranges_[i].hi)) {
        return false;
      }
    }
    for (const Condition& cond : not_equal_) {
      if (cond.column != Column::kTimestamp ||
          (a <= cond.value && cond.value <= b)) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kColumns = 4;  // every Column value

  struct Range {
    Column column = Column::kTimestamp;
    double lo = 0.0;
    double hi = 0.0;
  };
  Range ranges_[kColumns];
  std::size_t num_ranges_ = 0;
  std::vector<Condition> not_equal_;
  bool none_ = false;
  TimeNs from_ts_ = 0;
  TimeNs to_ts_ = 0;
};

// A matching row waiting for ORDER BY: its sort key and scan position.
struct Candidate {
  double key = 0.0;
  std::uint64_t pos = 0;
  Sample sample;
};

// ORDER BY's total order: keys in the requested direction, NaN keys last
// in both directions, equal keys (±0.0 alike, NaNs alike) in scan order.
// Sorting by it gives what a stable sort of the scan order gives.
struct SortsBefore {
  bool descending = false;
  bool operator()(const Candidate& a, const Candidate& b) const {
    const bool a_nan = std::isnan(a.key);
    const bool b_nan = std::isnan(b.key);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && a.key != b.key) {
      return descending ? a.key > b.key : a.key < b.key;
    }
    return a.pos < b.pos;
  }
};

// Bit i set when the key of row at + i sorts strictly before `cut`, the
// worst key a full top-k holds, for i < n <= kBlock. A later row whose key
// equals the cut sorts after the row holding it, so it never enters; a NaN
// cut is beaten by every other key, and an infinite cut in its own
// direction by none.
std::uint64_t BeatsCut(Column key, const ColumnSpan& rows, std::size_t at,
                       std::size_t n, double cut, bool descending) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (std::isnan(cut)) return InInterval(key, rows, at, n, -kInf, kInf);
  if (cut == (descending ? kInf : -kInf)) return 0;
  return descending
             ? InInterval(key, rows, at, n, std::nextafter(cut, kInf), kInf)
             : InInterval(key, rows, at, n, -kInf, std::nextafter(cut, -kInf));
}

// Sum / min / max of a column over the window, read off the rolling index.
double IndexSum(Column column, const StreamAggregates& agg) {
  switch (column) {
    case Column::kTimestamp:
      return agg.sum_timestamp;
    case Column::kMetric:
      return SumRule(agg.sum_value, agg.nan_values > 0,
                     agg.pos_inf_values > 0, agg.neg_inf_values > 0);
    case Column::kPredicted:
      return static_cast<double>(agg.predicted);
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

double IndexMin(Column column, const StreamAggregates& agg) {
  switch (column) {
    case Column::kTimestamp:
      return static_cast<double>(agg.min_timestamp);
    case Column::kMetric:
      return agg.min_value;
    case Column::kPredicted:
      return agg.predicted == agg.count ? 1.0 : 0.0;
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

double IndexMax(Column column, const StreamAggregates& agg) {
  switch (column) {
    case Column::kTimestamp:
      return static_cast<double>(agg.max_timestamp);
    case Column::kMetric:
      return agg.max_value;
    case Column::kPredicted:
      return agg.predicted > 0 ? 1.0 : 0.0;
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

// True when tier summaries can stand for a branch's history rows: its
// WHERE tests only Timestamp, and every item is COUNT,
// SUM/AVG/MIN/MAX(metric), MIN/MAX(Timestamp), LAST or a bare column.
bool SummariesAnswer(const Select& select) {
  for (const Condition& cond : select.where) {
    if (cond.column != Column::kTimestamp) return false;
  }
  for (const SelectItem& item : select.items) {
    switch (item.aggregate) {
      case Aggregate::kNone:
      case Aggregate::kLast:
      case Aggregate::kCount:
        break;
      case Aggregate::kSum:
      case Aggregate::kAvg:
        if (item.column != Column::kMetric) return false;
        break;
      case Aggregate::kMin:
      case Aggregate::kMax:
        if (item.column != Column::kMetric &&
            item.column != Column::kTimestamp) {
          return false;
        }
        break;
    }
  }
  return true;
}

}  // namespace

std::string SelectItemLabel(const SelectItem& item) {
  if (item.aggregate == Aggregate::kNone) return ColumnName(item.column);
  return std::string(AggregateName(item.aggregate)) + "(" +
         ColumnName(item.column) + ")";
}

double IndexAggregateCell(const SelectItem& item,
                          const std::optional<StreamAggregates>& agg) {
  if (!agg.has_value()) {
    return item.aggregate == Aggregate::kCount ? 0.0 : kNan;
  }
  switch (item.aggregate) {
    case Aggregate::kNone:
    case Aggregate::kLast:
      return CellOf(item.column, agg->latest.value);
    case Aggregate::kCount:
      return static_cast<double>(agg->count);
    case Aggregate::kSum:
      return IndexSum(item.column, *agg);
    case Aggregate::kAvg:
      return IndexSum(item.column, *agg) / static_cast<double>(agg->count);
    case Aggregate::kMin:
      return IndexMin(item.column, *agg);
    case Aggregate::kMax:
      return IndexMax(item.column, *agg);
  }
  return kNan;
}

IndexShape ShapeOf(const Select& select) {
  if (!select.where.empty()) return IndexShape::kNone;
  bool has_aggregate = false;
  bool latest_only = true;
  for (const SelectItem& item : select.items) {
    has_aggregate |= item.aggregate != Aggregate::kNone;
    latest_only &= item.aggregate == Aggregate::kLast ||
                   item.aggregate == Aggregate::kNone ||
                   (item.aggregate == Aggregate::kMax &&
                    item.column == Column::kTimestamp);
  }
  if (!has_aggregate) return IndexShape::kNone;
  return latest_only ? IndexShape::kLatest : IndexShape::kIndex;
}

bool IndexAnswersExactly(const Select& select, const TelemetryStream& stream) {
  switch (ShapeOf(select)) {
    case IndexShape::kNone:
      return false;
    case IndexShape::kLatest:
      return true;
    case IndexShape::kIndex:
      break;
  }
  Archiver<Sample>* archiver = stream.archiver();
  if (archiver == nullptr) return true;
  coldtier::ColdTier* cold = archiver->cold_reader();
  return archiver->Count() == 0 &&
         (cold == nullptr || cold->ColdRowCount() == 0);
}

bool HistoryIncomplete(const Select& select, const TelemetryStream& stream) {
  Archiver<Sample>* archiver = stream.archiver();
  if (archiver == nullptr || ShapeOf(select) == IndexShape::kLatest) {
    return false;
  }
  if (archiver->Failures() > 0) return true;
  coldtier::ColdTier* cold = archiver->cold_reader();
  return cold != nullptr && cold->quarantined_blocks() > 0;
}

Executor::Executor(Broker& broker, ExecutorOptions options)
    : broker_(broker),
      options_(options),
      queries_(obs::MetricsRegistry::Global().GetCounter(
          "apollo_aqe_queries_total", "AQE queries executed")),
      plan_cache_hits_(obs::MetricsRegistry::Global().GetCounter(
          "apollo_aqe_plan_cache_hits_total",
          "Queries answered from a cached plan")),
      plan_cache_misses_(obs::MetricsRegistry::Global().GetCounter(
          "apollo_aqe_plan_cache_misses_total",
          "Queries that parsed and planned from scratch")),
      query_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "apollo_aqe_query_duration_ns",
          "AQE query end-to-end latency (broker clock)")) {}

bool Executor::StripExplainPrefix(std::string_view text,
                                  std::string_view& rest, bool& analyze) {
  auto skip_ws = [](std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
      s.remove_prefix(1);
    }
    return s;
  };
  // Case-insensitive word match followed by whitespace or end.
  auto eat_word = [&](std::string_view s, std::string_view word,
                      std::string_view& after) {
    if (s.size() < word.size()) return false;
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(s[i])) != word[i]) {
        return false;
      }
    }
    if (s.size() > word.size() &&
        !std::isspace(static_cast<unsigned char>(s[word.size()]))) {
      return false;
    }
    after = skip_ws(s.substr(word.size()));
    return true;
  };
  std::string_view s = skip_ws(text);
  std::string_view after;
  if (!eat_word(s, "EXPLAIN", after)) return false;
  analyze = eat_word(after, "ANALYZE", after);
  rest = after;
  return true;
}

Expected<std::shared_ptr<const Executor::Plan>> Executor::ResolvePlan(
    const std::string& query_text, bool* cache_hit) {
  std::shared_ptr<const Plan> plan;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = plan_cache_.find(query_text);
    if (it != plan_cache_.end()) plan = it->second;
  }
  if (cache_hit != nullptr) *cache_hit = plan != nullptr;
  if (plan == nullptr) {
    plan_cache_misses_.Inc();
    auto parsed = Parse(query_text);
    if (!parsed.ok()) return parsed.error();
    auto fresh = std::make_shared<Plan>();
    fresh->query = std::move(*parsed);
    ResolveHandles(*fresh);
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (plan_cache_.size() >= kPlanCacheCapacity) {
      plan_cache_.clear();
    }
    plan_cache_[query_text] = fresh;
    plan = std::move(fresh);
  } else if (plan->broker_version != broker_.RegistryVersion()) {
    plan_cache_hits_.Inc();
    // Topic churn since plan time: re-resolve the handles once, keep the
    // parse.
    auto fresh = std::make_shared<Plan>(*plan);
    ResolveHandles(*fresh);
    std::lock_guard<std::mutex> lock(cache_mu_);
    plan_cache_[query_text] = fresh;
    plan = std::move(fresh);
  } else {
    plan_cache_hits_.Inc();
  }
  return plan;
}

Expected<ResultSet> Executor::Execute(const std::string& query_text) {
  // EXPLAIN routing: profile instead of answering, rendered as rows so the
  // shell and ApolloService::Query callers need no new entry point.
  std::string_view bare;
  bool analyze = false;
  if (StripExplainPrefix(query_text, bare, analyze)) {
    auto profile = Explain(std::string(bare), analyze);
    if (!profile.ok()) return profile.error();
    ResultSet result;
    result.columns = {"plan"};
    for (std::string& line : profile->ToLines()) {
      ResultRow row;
      row.source = std::move(line);
      row.degraded = profile->degraded;
      row.staleness_ns = profile->max_staleness_ns;
      result.rows.push_back(std::move(row));
    }
    result.degraded = profile->degraded;
    result.max_staleness_ns = profile->max_staleness_ns;
    return result;
  }

  TRACE_SPAN("aqe.execute", query_text);
  queries_.Inc();
  auto plan = ResolvePlan(query_text, nullptr);
  if (!plan.ok()) return plan.error();
  const TimeNs start = broker_.clock().Now();
  auto result = ExecutePlan(**plan);
  query_latency_.Record(broker_.clock().Now() - start);
  return result;
}

Expected<QueryProfile> Executor::Explain(const std::string& query_text,
                                         bool analyze) {
  TRACE_SPAN("aqe.explain", query_text);
  QueryProfile profile;
  profile.query_text = query_text;
  profile.analyzed = analyze;
  auto plan = ResolvePlan(query_text, &profile.plan_cache_hit);
  if (!plan.ok()) return plan.error();

  if (analyze) {
    queries_.Inc();
    const TimeNs start = broker_.clock().Now();
    auto result = ExecutePlan(**plan, &profile);
    const TimeNs elapsed = broker_.clock().Now() - start;
    query_latency_.Record(elapsed);
    if (!result.ok()) return result.error();
    profile.total_ns = elapsed;
    profile.total_rows = result->NumRows();
    profile.degraded = result->degraded;
    profile.max_staleness_ns = result->max_staleness_ns;
    return profile;
  }

  // Plan-only: report each branch's topic, whether its handle resolved,
  // and the statically-knowable strategy (runtime state — archive contents,
  // index trust — can still demote an "index" plan to a scan at exec time).
  const Plan& resolved = **plan;
  for (std::size_t i = 0; i < resolved.query.selects.size(); ++i) {
    const Select& select = resolved.query.selects[i];
    VertexProfile vp;
    vp.topic = select.table;
    vp.resolved = resolved.handles[i].valid();
    switch (ShapeOf(select)) {
      case IndexShape::kLatest:
        vp.strategy = "latest";
        break;
      case IndexShape::kIndex:
        vp.strategy = "index";
        break;
      case IndexShape::kNone:
        vp.strategy = "scan";
        break;
    }
    profile.vertices.push_back(std::move(vp));
  }
  return profile;
}

Expected<ResultSet> Executor::ExecuteQuery(const Query& query) {
  Plan plan;
  plan.query = query;
  ResolveHandles(plan);
  return ExecutePlan(plan);
}

std::size_t Executor::PlanCacheSize() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return plan_cache_.size();
}

void Executor::ResolveHandles(Plan& plan) const {
  plan.broker_version = broker_.RegistryVersion();
  plan.handles.clear();
  plan.handles.reserve(plan.query.selects.size());
  for (const Select& select : plan.query.selects) {
    auto handle = broker_.Resolve(select.table);
    // Missing topics leave an invalid handle; ExecuteSelect retries the
    // lookup (and errors, as before) so late-created topics still resolve.
    plan.handles.push_back(handle.ok() ? *std::move(handle) : TopicHandle());
  }
}

Expected<ResultSet> Executor::ExecutePlan(const Plan& plan,
                                          QueryProfile* profile) {
  const Query& query = plan.query;
  if (query.selects.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty query");
  }
  ResultSet result;
  const std::vector<SelectItem>& items = query.selects.front().items;
  result.columns.reserve(items.size());
  for (const SelectItem& item : items) {
    result.columns.push_back(SelectItemLabel(item));
  }
  if (profile != nullptr) {
    profile->vertices.assign(query.selects.size(), VertexProfile{});
  }

  for (std::size_t i = 0; i < query.selects.size(); ++i) {
    VertexProfile* vp = profile != nullptr ? &profile->vertices[i] : nullptr;
    Status status =
        ExecuteSelect(query.selects[i], plan.handles[i], result, vp);
    if (!status.ok()) return Error(status.code(), status.message());
  }
  return result;
}

Status Executor::ExecuteSelect(const Select& select, TopicHandle handle,
                               ResultSet& result, VertexProfile* vp) const {
  TRACE_SPAN("aqe.select", select.table);
  const TimeNs exec_start = vp != nullptr ? broker_.clock().Now() : 0;
  if (vp != nullptr) vp->topic = select.table;
  if (!handle.valid()) {
    auto resolved = broker_.Resolve(select.table);
    if (!resolved.ok()) return resolved.error();
    handle = *std::move(resolved);
  }
  if (vp != nullptr) vp->resolved = true;
  TelemetryStream* stream = handle.stream();

  // Charge the client->vertex network hop once per table access — a pure
  // latency charge, no stream locks or registry lookups.
  if (options_.client_node != handle.home_node()) {
    (void)broker_.ChargeHop(handle, options_.client_node);
  }

  // Degradation surface, stamped on every row this branch returns: a
  // degraded stream keeps answering from last-known-good / predicted
  // values, a history scan that skipped an unreadable tier raises it too,
  // and staleness lets clients judge how old the values are.
  bool is_degraded = stream->degraded();
  const std::optional<StreamEntry<Sample>> newest = stream->Latest();
  const TimeNs staleness_ns =
      newest.has_value()
          ? StalenessNs(broker_.clock().Now(), newest->value.timestamp)
          : 0;

  // The branch appends its rows to the caller's, from `first` on, and
  // stamps them once it knows whether its answer is degraded.
  std::vector<ResultRow>& rows = result.rows;
  const std::size_t first = rows.size();
  auto new_row = [&]() -> ResultRow& {
    ResultRow& row = rows.emplace_back();
    row.source = select.table;
    row.values.reserve(select.items.size());
    return row;
  };
  auto stamp = [&] {
    // Checked after the tiers were read: a row the archive dropped is
    // counted before its append returns, and a block is counted as
    // quarantined before it leaves the live set, so an answer that misses
    // either sees the count.
    if (HistoryIncomplete(select, *stream)) is_degraded = true;
    for (std::size_t i = first; i < rows.size(); ++i) {
      rows[i].degraded = is_degraded;
      rows[i].staleness_ns = staleness_ns;
    }
    if (rows.size() > first) {
      result.degraded |= is_degraded;
      result.max_staleness_ns =
          std::max(result.max_staleness_ns, staleness_ns);
    }
    if (vp != nullptr) {
      vp->degraded = is_degraded;
      vp->staleness_ns = staleness_ns;
      vp->rows_returned = rows.size() - first;
      vp->exec_ns = broker_.clock().Now() - exec_start;
    }
    return Status::Ok();
  };

  const bool has_aggregate =
      std::any_of(select.items.begin(), select.items.end(),
                  [](const SelectItem& item) {
                    return item.aggregate != Aggregate::kNone;
                  });

  // Fast path for the latest-value idiom (SELECT MAX(Timestamp), metric
  // FROM t with no predicates): the answer is the stream's newest entry —
  // no window scan, no archive. This is the query middleware issues per
  // placement decision, so it gets O(1) treatment.
  const IndexShape shape = ShapeOf(select);
  if (shape == IndexShape::kLatest) {
    ResultRow& row = new_row();
    for (const SelectItem& item : select.items) {
      row.values.push_back(
          newest.has_value() ? CellOf(item.column, newest->value) : kNan);
    }
    if (vp != nullptr) {
      vp->strategy = "latest";
      vp->rows_scanned = newest.has_value() ? 1 : 0;
      vp->rows_matched = vp->rows_scanned;
    }
    return stamp();
  }

  // O(1) rolling-aggregate path: COUNT/SUM/AVG/MIN/MAX with no WHERE answer
  // from the stream's aggregate index when it is exact; otherwise the scan
  // below merges the history the index does not cover.
  if (shape == IndexShape::kIndex) {
    auto agg = stream->Aggregates();
    if (IndexAnswersExactly(select, *stream)) {
      ResultRow& row = new_row();
      for (const SelectItem& item : select.items) {
        row.values.push_back(IndexAggregateCell(item, agg));
      }
      if (vp != nullptr) {
        vp->strategy = "index";
        vp->rows_matched = agg.has_value() ? agg->count : 0;
      }
      return stamp();
    }
  }

  // The candidate window: the full in-memory window unless timestamp
  // predicates narrow it (they may reach into the archive).
  const RowFilter filter(select.where);
  const TimeNs from_ts = filter.from_ts();
  const TimeNs to_ts = filter.to_ts();

  // History: a topic with an archiver may hold rows in the WAL and in cold
  // blocks, so read the tiers warm to cold — ring, WAL, cold scan — each
  // keeping only the ids below the warmer tier's first row (a TierCap the
  // tier applies as it reads), then feed the rows oldest first: cold spans
  // as the scan decodes them, the WAL's, the ring's. Whether a colder tier
  // holds rows is asked only after the warmer one was read: a row leaves
  // the ring only once the WAL counts it, and a segment leaves the WAL only
  // once the cold tier holds its rows, so a row moving between tiers
  // mid-query is never missed. The ring's and cold blocks' spans reach the
  // consumers in place, save that a topic with an archiver copies its ring
  // rows out before the WAL read; the WAL's records are packed into
  // columns.
  Archiver<Sample>* archiver = stream->archiver();
  coldtier::ColdTier* cold =
      archiver != nullptr ? archiver->cold_reader() : nullptr;
  const bool history = archiver != nullptr;
  bool cold_has_rows = false;

  // A tier summary stands for its rows only in an aggregate that summaries
  // answer, when the scan would feed every one of them (each is in range
  // and kept by the cap) and the WHERE matches every one.
  const bool summaries = has_aggregate && SummariesAnswer(select);
  const auto inside = [&](const TierSummary& summary, const TierCap& cap) {
    return summaries && summary.min_ts >= from_ts &&
           cap.Keeps(summary.max_ts, summary.last_id) &&
           filter.CoversTimestamps(summary.min_ts, summary.max_ts);
  };

  // Reused across calls on this thread: once grown to the largest ring
  // copy and WAL read, a history query allocates no row buffer. A WAL
  // segment whose summary stands for its verified prefix is a piece: the
  // summary, fed after the WAL rows packed before it.
  struct WalPiece {
    std::size_t rows_before;
    std::shared_ptr<const TierSummary> summary;
  };
  thread_local ColumnBuffer ring_rows;
  thread_local ColumnBuffer wal_rows;
  thread_local std::vector<WalPiece> wal_pieces;
  bool wal_failed = false;
  std::uint64_t wal_count = 0;  // WAL rows fed, from records or summaries
  WalVisitStats wal_stats;
  TierCap cold_cap = TierCap::Through(to_ts);
  if (history) {
    // WAL rows with ids below the first in-memory one, so rows evicted
    // after the ring copy are left out (the copy holds them); when the
    // window had no match at all, the whole range comes from the archive.
    TierCap wal_cap = TierCap::Through(to_ts);
    ring_rows.Resize(0);
    stream->VisitColumns(
        from_ts, to_ts, [&](std::uint64_t first_id, const ColumnSpan& span) {
          if (ring_rows.size() == 0) wal_cap.below_id = first_id;
          ring_rows.Append(span);
          return true;
        });
    wal_rows.Resize(0);
    wal_pieces.clear();
    // Cold rows have lower ids than everything still in the WAL
    // (compaction drains oldest segments first), so capping the cold range
    // below the first WAL row kept keeps COUNT exact even when a concurrent
    // compaction moves rows between the two reads: any row both reads saw
    // has an id at or past the first WAL row's and gets excluded. That row
    // is a record's, or the first row of the first summary kept.
    cold_cap = wal_cap;
    if (archiver->Count() > 0 && from_ts <= to_ts) {
      // Keeps `rows` WAL rows, the first of them `id`.
      const auto keep = [&](std::uint64_t id, std::uint64_t rows) {
        if (wal_count == 0) cold_cap.below_id = id;
        wal_count += rows;
      };
      const auto wal_record = [&](const Archiver<Sample>::Record& rec) {
        keep(rec.id, 1);
        wal_rows.Push(rec.payload);  // stamped with rec.timestamp
      };
      const auto wal_prefix =
          [&](const std::shared_ptr<const TierSummary>& summary) {
            if (!inside(*summary, wal_cap)) return false;
            keep(summary->first_id, summary->rows);
            wal_pieces.push_back(WalPiece{wal_rows.size(), summary});
            return true;
          };
      Archiver<Sample>::SummaryOffer offer;
      if (summaries) offer = std::cref(wal_prefix);
      // An unreadable WAL contributes nothing: the answer comes from the
      // other tiers and is marked degraded below.
      wal_failed = !archiver
                        ->VisitRange(from_ts, wal_cap, offer,
                                     std::cref(wal_record), &wal_stats)
                        .ok();
      if (wal_failed) {
        GlobalTelemetry().archive_read_errors.Inc();
        wal_rows.Resize(0);
        wal_pieces.clear();
        wal_count = 0;
        cold_cap = wal_cap;
      }
    }
    cold_has_rows = cold != nullptr && cold->ColdRowCount() > 0;
  }

  // Feeds every row in range to `consume(const ColumnSpan&)`, which returns
  // false to stop (LIMIT without ORDER BY). The cold scan runs here, after
  // the WAL read. `merge`, set for aggregates that summaries answer, takes
  // each tier summary that stands for its rows, in scan order: the cold
  // blocks' as the scan reaches them (see ColdTier::VisitRange), then the
  // WAL pieces, each after the WAL rows packed before it.
  ColdScanStats cold_stats;
  std::uint64_t cold_count = 0;
  auto scan = [&](auto&& consume,
                  const std::function<void(const TierSummary&)>& merge =
                      nullptr) {
    if (vp != nullptr) vp->strategy = "scan";
    if (!history) {
      stream->VisitColumns(from_ts, to_ts,
                           [&](std::uint64_t, const ColumnSpan& span) {
                             return consume(span);
                           });
      return;
    }
    bool open = true;
    const auto feed = [&](const ColumnSpan& rows) {
      if (open) open = consume(rows);
    };
    if (cold_has_rows && from_ts <= to_ts) {
      const auto cold_span = [&](const std::uint64_t*,
                                 const ColumnSpan& rows) {
        cold_count += rows.size;
        feed(rows);
      };
      const auto cold_block = [&](const TierSummary& summary) {
        if (!inside(summary, cold_cap)) return false;
        merge(summary);
        cold_count += summary.rows;
        return true;
      };
      coldtier::ColdTier::SummaryVisitor offer;
      if (summaries) offer = std::cref(cold_block);
      // VisitRange degrades internally (quarantine/skip + stats) and visits
      // its whole range; rows after a stop are skipped, so the counts below
      // do not depend on LIMIT. std::cref keeps the visitors inside
      // std::function's small buffer.
      (void)cold->VisitRange(from_ts, cold_cap, offer, std::cref(cold_span),
                             &cold_stats);
    }
    std::size_t fed = 0;
    for (const WalPiece& piece : wal_pieces) {
      feed(wal_rows.View(fed, piece.rows_before));
      fed = piece.rows_before;
      merge(*piece.summary);
    }
    wal_pieces.clear();  // lets go of the summaries
    feed(wal_rows.View(fed, wal_rows.size()));
    feed(ring_rows.View(0, ring_rows.size()));
    // An answer that skipped an unreadable tier must say so.
    if (wal_failed ||
        cold_stats.read_errors + cold_stats.blocks_quarantined > 0) {
      is_degraded = true;
    }
    if (vp != nullptr) {
      if (wal_count > 0) vp->strategy += "+archive";
      if (cold_count > 0) vp->strategy += "+cold";
      vp->archive_rows = wal_count;
      vp->wal_segments_summarized = wal_stats.segments_summarized;
      vp->wal_segments_pruned = wal_stats.segments_pruned;
      vp->wal_records_read = wal_stats.records_read;
      vp->cold_rows = cold_count;
      vp->cold_blocks_scanned =
          cold_stats.blocks_scanned + cold_stats.blocks_summarized;
      vp->cold_blocks_summarized = cold_stats.blocks_summarized;
      vp->cold_blocks_pruned = cold_stats.blocks_pruned;
    }
  };

  if (has_aggregate) {
    // One row; bare columns in an aggregate select resolve against the
    // latest matching entry (the paper's MAX(Timestamp), metric idiom).
    // SUM/AVG are exact, and MIN/MAX skip NaN and order -0.0 below +0.0
    // (common/exact_sum.h); with no other value MIN/MAX answer NaN. So the
    // answer does not depend on row order, and a cold block's summary
    // merges to the same bits as its rows.
    struct ItemAcc {
      ExactSum sum;
      double min = kNan;
      double max = kNan;
      void Order(double v) {
        if (std::isnan(v)) return;
        if (std::isnan(min) || OrdersBelow(v, min)) min = v;
        if (std::isnan(max) || OrdersBelow(max, v)) max = v;
      }
    };
    std::vector<ItemAcc> accs(select.items.size());
    std::size_t matched = 0;
    const bool wants_latest =
        std::any_of(select.items.begin(), select.items.end(),
                    [](const SelectItem& item) {
                      return item.aggregate == Aggregate::kNone ||
                             item.aggregate == Aggregate::kLast;
                    });
    Sample latest{};
    bool has_latest = false;
    const auto keep_latest = [&](const Sample& sample) {
      if (!has_latest || sample.timestamp >= latest.timestamp) {
        latest = sample;
        has_latest = true;
      }
    };

    const auto consume = [&](const ColumnSpan& batch) {
      if (vp != nullptr) vp->rows_scanned += batch.size;
      for (std::size_t at = 0; at < batch.size; at += kBlock) {
        const std::uint64_t mask =
            filter.Match(batch, at, std::min(kBlock, batch.size - at));
        if (mask == 0) continue;
        matched += static_cast<std::size_t>(std::popcount(mask));
        if (wants_latest) {
          ForEachBit(mask,
                     [&](std::size_t i) { keep_latest(batch.At(at + i)); });
        }
        for (std::size_t k = 0; k < select.items.size(); ++k) {
          const Column column = select.items[k].column;
          ItemAcc& acc = accs[k];
          switch (select.items[k].aggregate) {
            case Aggregate::kNone:
            case Aggregate::kLast:
            case Aggregate::kCount:
              break;
            case Aggregate::kSum:
            case Aggregate::kAvg:
              ForEachBit(mask, [&](std::size_t i) {
                acc.sum.Add(CellOf(column, batch.At(at + i)));
              });
              break;
            case Aggregate::kMin:
            case Aggregate::kMax:
              ForEachBit(mask, [&](std::size_t i) {
                acc.Order(CellOf(column, batch.At(at + i)));
              });
              break;
          }
        }
      }
      return true;
    };
    // A tier summary that stands for its rows merges as they would.
    const auto merge = [&](const TierSummary& summary) {
      matched += summary.rows;
      keep_latest(summary.latest);
      for (std::size_t i = 0; i < select.items.size(); ++i) {
        const SelectItem& item = select.items[i];
        switch (item.aggregate) {
          case Aggregate::kNone:
          case Aggregate::kLast:
          case Aggregate::kCount:
            break;
          case Aggregate::kSum:
          case Aggregate::kAvg:
            accs[i].sum.Merge(summary.sum);
            break;
          case Aggregate::kMin:
          case Aggregate::kMax:
            if (item.column == Column::kMetric) {
              accs[i].Order(summary.min_value);
              accs[i].Order(summary.max_value);
            } else {
              accs[i].Order(static_cast<double>(summary.min_ts));
              accs[i].Order(static_cast<double>(summary.max_ts));
            }
            break;
        }
      }
    };
    scan(consume, std::cref(merge));
    if (vp != nullptr) vp->rows_matched = matched;

    ResultRow& out = new_row();
    for (std::size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      double cell = kNan;
      switch (item.aggregate) {
        case Aggregate::kNone:
        case Aggregate::kLast:
          if (has_latest) cell = CellOf(item.column, latest);
          break;
        case Aggregate::kCount:
          cell = static_cast<double>(matched);
          break;
        case Aggregate::kMax:
          cell = accs[i].max;
          break;
        case Aggregate::kMin:
          cell = accs[i].min;
          break;
        case Aggregate::kSum:
          if (matched > 0) cell = accs[i].sum.Value();
          break;
        case Aggregate::kAvg:
          if (matched > 0) {
            cell = accs[i].sum.Value() / static_cast<double>(matched);
          }
          break;
      }
      out.values.push_back(cell);
    }
    return stamp();
  }

  const std::size_t limit = select.limit.has_value()
                                ? static_cast<std::size_t>(*select.limit)
                                : SIZE_MAX;
  auto append = [&](const Sample& sample) {
    ResultRow& row = new_row();
    for (const SelectItem& item : select.items) {
      row.values.push_back(CellOf(item.column, sample));
    }
  };

  // Row-per-entry select without ORDER BY: rows in scan order, and the
  // scan stops at the first match past LIMIT rows, which it counts as
  // scanned and matched.
  if (!select.order_by.has_value()) {
    scan([&](const ColumnSpan& batch) {
      for (std::size_t at = 0; at < batch.size; at += kBlock) {
        const std::size_t n = std::min(kBlock, batch.size - at);
        for (std::uint64_t mask = filter.Match(batch, at, n); mask != 0;
             mask &= mask - 1) {
          const auto i = static_cast<std::size_t>(std::countr_zero(mask));
          if (vp != nullptr) ++vp->rows_matched;
          if (rows.size() - first >= limit) {
            if (vp != nullptr) vp->rows_scanned += i + 1;
            return false;
          }
          append(batch.At(at + i));
        }
        if (vp != nullptr) vp->rows_scanned += n;
      }
      return true;
    });
    return stamp();
  }

  // ORDER BY [LIMIT k] as a bounded top-k during the scan: `top` holds at
  // most k candidates, and once full it is a heap whose front sorts last,
  // which a new match replaces only if it sorts before it. Between blocks
  // the cut rises to that front's key, and only the rows of a block whose
  // keys beat it are offered. Rows are built for the winners alone.
  // Without LIMIT the heap is unbounded.
  const SortsBefore before{select.order_by->descending};
  const Column key_column = select.order_by->column;
  std::vector<Candidate> top;
  if (limit <= stream->Capacity()) top.reserve(limit);
  std::uint64_t scanned = 0;  // rows fed before this batch: scan positions
  scan([&](const ColumnSpan& batch) {
    if (vp != nullptr) vp->rows_scanned += batch.size;
    for (std::size_t at = 0; at < batch.size; at += kBlock) {
      const std::size_t n = std::min(kBlock, batch.size - at);
      std::uint64_t mask = filter.Match(batch, at, n);
      if (vp != nullptr) {
        vp->rows_matched += static_cast<std::uint64_t>(std::popcount(mask));
      }
      if (mask != 0 && top.size() == limit) {
        mask = limit == 0 ? 0
                          : mask & BeatsCut(key_column, batch, at, n,
                                            top.front().key, before.descending);
      }
      ForEachBit(mask, [&](std::size_t i) {
        const Sample sample = batch.At(at + i);
        const Candidate match{CellOf(key_column, sample), scanned + at + i,
                              sample};
        if (top.size() < limit) {
          top.push_back(match);
          if (top.size() == limit) {
            std::make_heap(top.begin(), top.end(), before);
          }
        } else if (before(match, top.front())) {
          std::pop_heap(top.begin(), top.end(), before);
          top.back() = match;
          std::push_heap(top.begin(), top.end(), before);
        }
      });
    }
    scanned += batch.size;
    return true;
  });
  std::sort(top.begin(), top.end(), before);
  rows.reserve(first + top.size());
  for (const Candidate& candidate : top) append(candidate.sample);
  return stamp();
}

}  // namespace apollo::aqe
