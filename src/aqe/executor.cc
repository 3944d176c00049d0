#include "aqe/executor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "obs/trace.h"

namespace apollo::aqe {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Parsed plans cached by query text; the cache resets when it fills.
constexpr std::size_t kPlanCacheCapacity = 1024;

double CellOf(Column column, const StreamEntry<Sample>& entry) {
  switch (column) {
    case Column::kTimestamp:
      return static_cast<double>(entry.value.timestamp);
    case Column::kMetric:
      return entry.value.value;
    case Column::kPredicted:
      return entry.value.provenance == Provenance::kPredicted ? 1.0 : 0.0;
    case Column::kStar:
      return 0.0;
  }
  return 0.0;
}

bool Matches(const Condition& cond, const StreamEntry<Sample>& entry) {
  const double lhs = CellOf(cond.column, entry);
  switch (cond.op) {
    case CompareOp::kLt:
      return lhs < cond.value;
    case CompareOp::kLe:
      return lhs <= cond.value;
    case CompareOp::kGt:
      return lhs > cond.value;
    case CompareOp::kGe:
      return lhs >= cond.value;
    case CompareOp::kEq:
      return lhs == cond.value;
    case CompareOp::kNe:
      return lhs != cond.value;
  }
  return false;
}

bool MatchesAll(const std::vector<Condition>& where,
                const StreamEntry<Sample>& entry) {
  for (const Condition& cond : where) {
    if (!Matches(cond, entry)) return false;
  }
  return true;
}

// Sum / min / max of a column over the window, read off the rolling index.
double IndexSum(Column column, const StreamAggregates& agg) {
  switch (column) {
    case Column::kTimestamp:
      return agg.sum_timestamp;
    case Column::kMetric:
      return agg.sum_value;
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
      return CellOf(item.column, agg->latest);
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

bool IndexAnswersExactly(const Select& select, const TelemetryStream& stream,
                         const std::optional<StreamAggregates>& agg) {
  switch (ShapeOf(select)) {
    case IndexShape::kNone:
      return false;
    case IndexShape::kLatest:
      return true;
    case IndexShape::kIndex:
      break;
  }
  if (Archiver<Sample>* archiver = stream.archiver()) {
    if (archiver->Count() > 0) return false;
    ColdReaderBase* cold = archiver->cold_reader();
    if (cold != nullptr && cold->ColdRowCount() > 0) return false;
  }
  if (!agg.has_value() || agg->timestamps_trusted) return true;
  return std::none_of(select.items.begin(), select.items.end(),
                      [](const SelectItem& item) {
                        return item.column == Column::kTimestamp &&
                               (item.aggregate == Aggregate::kSum ||
                                item.aggregate == Aggregate::kAvg ||
                                item.aggregate == Aggregate::kMin ||
                                item.aggregate == Aggregate::kMax);
                      });
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
  for (const SelectItem& item : query.selects.front().items) {
    result.columns.push_back(SelectItemLabel(item));
  }
  if (profile != nullptr) {
    profile->vertices.assign(query.selects.size(), VertexProfile{});
  }

  for (std::size_t i = 0; i < query.selects.size(); ++i) {
    VertexProfile* vp = profile != nullptr ? &profile->vertices[i] : nullptr;
    auto rows = ExecuteSelect(query.selects[i], plan.handles[i], vp);
    if (!rows.ok()) return rows.error();
    for (auto& row : *rows) {
      result.degraded |= row.degraded;
      result.max_staleness_ns =
          std::max(result.max_staleness_ns, row.staleness_ns);
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

Expected<std::vector<ResultRow>> Executor::ExecuteSelect(
    const Select& select, TopicHandle handle, VertexProfile* vp) const {
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
  TimeNs staleness_ns = 0;
  if (auto newest = stream->Latest(); newest.has_value()) {
    staleness_ns =
        std::max<TimeNs>(0, broker_.clock().Now() - newest->value.timestamp);
  }
  auto stamped = [&](std::vector<ResultRow> rows) {
    for (ResultRow& row : rows) {
      row.degraded = is_degraded;
      row.staleness_ns = staleness_ns;
    }
    if (vp != nullptr) {
      vp->degraded = is_degraded;
      vp->staleness_ns = staleness_ns;
      vp->rows_returned = rows.size();
      vp->exec_ns = broker_.clock().Now() - exec_start;
    }
    return rows;
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
    auto latest = stream->Latest();
    ResultRow row;
    row.source = select.table;
    for (const SelectItem& item : select.items) {
      row.values.push_back(latest.has_value() ? CellOf(item.column, *latest)
                                              : kNan);
    }
    if (vp != nullptr) {
      vp->strategy = "latest";
      vp->rows_scanned = latest.has_value() ? 1 : 0;
      vp->rows_matched = vp->rows_scanned;
    }
    return stamped(std::vector<ResultRow>{std::move(row)});
  }

  // O(1) rolling-aggregate path: COUNT/SUM/AVG/MIN/MAX with no WHERE answer
  // from the stream's aggregate index when it is exact; otherwise the scan
  // below merges the history the index does not cover.
  if (shape == IndexShape::kIndex) {
    auto agg = stream->Aggregates();
    if (IndexAnswersExactly(select, *stream, agg)) {
      ResultRow row;
      row.source = select.table;
      for (const SelectItem& item : select.items) {
        row.values.push_back(IndexAggregateCell(item, agg));
      }
      if (vp != nullptr) {
        vp->strategy = "index";
        vp->rows_matched = agg.has_value() ? agg->count : 0;
      }
      return stamped(std::vector<ResultRow>{std::move(row)});
    }
  }

  // Determine the candidate window: default = full in-memory window;
  // timestamp predicates narrow it (and may reach into the archive).
  TimeNs from_ts = std::numeric_limits<TimeNs>::min();
  TimeNs to_ts = std::numeric_limits<TimeNs>::max();
  for (const Condition& cond : select.where) {
    if (cond.column != Column::kTimestamp) continue;
    const TimeNs v = static_cast<TimeNs>(cond.value);
    switch (cond.op) {
      case CompareOp::kGt:
      case CompareOp::kGe:
        from_ts = std::max(from_ts, v);
        break;
      case CompareOp::kLt:
      case CompareOp::kLe:
        to_ts = std::min(to_ts, v);
        break;
      case CompareOp::kEq:
        from_ts = std::max(from_ts, v);
        to_ts = std::min(to_ts, v);
        break;
      case CompareOp::kNe:
        break;
    }
  }

  // History: once rows have left the ring for the WAL (and from there for
  // cold blocks), read the tiers warm to cold — ring snapshot, WAL, cold
  // scan — each capped below the warmer tier's oldest row, then feed the
  // rows oldest first: cold rows straight from the scan's visitor, the WAL
  // records, the ring snapshot. Without history the ring is iterated in
  // place. Either way no row is copied into a merged vector.
  Archiver<Sample>* archiver = stream->archiver();
  ColdReaderBase* cold =
      archiver != nullptr ? archiver->cold_reader() : nullptr;
  const bool archive_has_rows = archiver != nullptr && archiver->Count() > 0;
  const bool cold_has_rows = cold != nullptr && cold->ColdRowCount() > 0;
  const bool history = archive_has_rows || cold_has_rows;

  // The oldest row a warmer tier returned. A colder tier keeps a row only
  // if it is older: an earlier timestamp, or the same timestamp and a
  // lower id, since a run of equal timestamps can straddle a tier boundary.
  struct Cap {
    TimeNs ts;
    std::uint64_t id;
    bool Keeps(TimeNs row_ts, std::uint64_t row_id) const {
      return row_ts < ts || (row_ts == ts && row_id < id);
    }
  };

  // Reused across calls on this thread: once grown to the largest ring
  // snapshot and WAL read, a history query allocates no row buffer.
  thread_local std::vector<StreamEntry<Sample>> scratch;
  thread_local std::vector<Archiver<Sample>::Record> wal;
  bool wal_failed = false;
  Cap cold_cap{to_ts, UINT64_MAX};
  if (history) {
    stream->RangeByTime(from_ts, to_ts, scratch);
    // WAL rows older than the in-memory ones; when the window had no
    // match at all, the whole range comes from the archive.
    Cap wal_cap{to_ts, UINT64_MAX};
    if (!scratch.empty()) {
      wal_cap = Cap{scratch.front().timestamp, scratch.front().id};
    }
    wal.clear();
    if (archive_has_rows && from_ts <= wal_cap.ts) {
      // An unreadable WAL leaves `wal` empty: the answer comes from the
      // other tiers and is marked degraded below.
      wal_failed = !archiver->ReadRange(from_ts, wal_cap.ts, wal).ok();
      if (wal_failed) {
        GlobalTelemetry().archive_read_errors.Inc();
      }
      // Rows evicted from the ring after the snapshot are in the snapshot.
      std::erase_if(wal, [&wal_cap](const auto& rec) {
        return !wal_cap.Keeps(rec.timestamp, rec.id);
      });
    }
    // Cold rows are older than everything still in the WAL (compaction
    // drains oldest segments first), so capping the cold range below the
    // first WAL row keeps COUNT exact even when a concurrent compaction
    // moves rows between the two reads: any row both reads saw is not
    // older than the first WAL row and gets excluded here.
    cold_cap = wal.empty() ? wal_cap
                           : Cap{wal.front().timestamp, wal.front().id};
  }

  // Single pass: predicates filter inline; `visit` returns false to stop
  // (LIMIT without ORDER BY). The cold scan runs here, after the WAL read.
  ColdScanStats cold_stats;
  std::uint64_t cold_rows = 0;
  auto scan = [&](auto&& visit) {
    if (vp != nullptr) vp->strategy = "scan";
    if (!history) {
      stream->ForEachInRange(from_ts, to_ts, visit);
      return;
    }
    bool open = true;
    auto feed = [&](const StreamEntry<Sample>& entry) {
      if (open) open = visit(entry);
    };
    if (cold_has_rows && from_ts <= cold_cap.ts) {
      const auto cold_row = [&](std::uint64_t id, TimeNs timestamp,
                                const Sample& sample) {
        if (!cold_cap.Keeps(timestamp, id)) return;
        ++cold_rows;
        feed(StreamEntry<Sample>{id, timestamp, sample});
      };
      // ScanRange degrades internally (quarantine/skip + stats) and visits
      // its whole range; rows after a stop are skipped, so the counts below
      // do not depend on LIMIT. std::cref keeps the visitor inside
      // std::function's small buffer.
      (void)cold->ScanRange(from_ts, cold_cap.ts, std::cref(cold_row),
                            &cold_stats);
    }
    for (const auto& rec : wal) {
      if (!open) break;
      feed(StreamEntry<Sample>{rec.id, rec.timestamp, rec.payload});
    }
    for (const auto& entry : scratch) {
      if (!open) break;
      feed(entry);
    }
    // An answer that skipped an unreadable tier must say so.
    if (wal_failed ||
        cold_stats.read_errors + cold_stats.blocks_quarantined > 0) {
      is_degraded = true;
    }
    if (vp != nullptr) {
      if (!wal.empty()) vp->strategy += "+archive";
      if (cold_rows > 0) vp->strategy += "+cold";
      vp->archive_rows = wal.size();
      vp->cold_rows = cold_rows;
      vp->cold_blocks_scanned = cold_stats.blocks_scanned;
      vp->cold_blocks_pruned = cold_stats.blocks_pruned;
    }
  };

  if (has_aggregate) {
    // One row; bare columns in an aggregate select resolve against the
    // latest matching entry (the paper's MAX(Timestamp), metric idiom).
    // MIN/MAX skip NaN, as the rolling index does; with no other value
    // they answer NaN.
    struct ItemAcc {
      double sum = 0.0;
      double min = std::numeric_limits<double>::infinity();
      double max = -std::numeric_limits<double>::infinity();
      bool ordered = false;  // a non-NaN value reached min/max
    };
    std::vector<ItemAcc> accs(select.items.size());
    std::size_t matched = 0;
    StreamEntry<Sample> latest{};
    bool has_latest = false;

    scan([&](const StreamEntry<Sample>& entry) {
      if (vp != nullptr) ++vp->rows_scanned;
      if (!MatchesAll(select.where, entry)) return true;
      ++matched;
      if (!has_latest || entry.value.timestamp >= latest.value.timestamp) {
        latest = entry;
        has_latest = true;
      }
      for (std::size_t i = 0; i < select.items.size(); ++i) {
        const SelectItem& item = select.items[i];
        if (item.aggregate == Aggregate::kNone ||
            item.aggregate == Aggregate::kLast ||
            item.aggregate == Aggregate::kCount) {
          continue;
        }
        const double v = CellOf(item.column, entry);
        ItemAcc& acc = accs[i];
        acc.sum += v;
        if (std::isnan(v)) continue;
        acc.min = std::min(acc.min, v);
        acc.max = std::max(acc.max, v);
        acc.ordered = true;
      }
      return true;
    });
    if (vp != nullptr) vp->rows_matched = matched;

    ResultRow row;
    row.source = select.table;
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
          if (accs[i].ordered) cell = accs[i].max;
          break;
        case Aggregate::kMin:
          if (accs[i].ordered) cell = accs[i].min;
          break;
        case Aggregate::kSum:
          if (matched > 0) cell = accs[i].sum;
          break;
        case Aggregate::kAvg:
          if (matched > 0) {
            cell = accs[i].sum / static_cast<double>(matched);
          }
          break;
      }
      row.values.push_back(cell);
    }
    return stamped(std::vector<ResultRow>{std::move(row)});
  }

  // Row-per-entry select, built in one pass. Without ORDER BY the scan
  // stops as soon as LIMIT rows have matched.
  const bool ordered = select.order_by.has_value();
  const std::size_t limit = select.limit.has_value()
                                ? static_cast<std::size_t>(*select.limit)
                                : SIZE_MAX;
  std::vector<ResultRow> rows;
  std::vector<double> keys;  // sort keys, parallel to rows (ORDER BY only)

  scan([&](const StreamEntry<Sample>& entry) {
    if (vp != nullptr) ++vp->rows_scanned;
    if (!MatchesAll(select.where, entry)) return true;
    if (vp != nullptr) ++vp->rows_matched;
    if (!ordered && rows.size() >= limit) return false;
    ResultRow row;
    row.source = select.table;
    row.values.reserve(select.items.size());
    for (const SelectItem& item : select.items) {
      row.values.push_back(CellOf(item.column, entry));
    }
    rows.push_back(std::move(row));
    if (ordered) keys.push_back(CellOf(select.order_by->column, entry));
    return true;
  });

  if (ordered) {
    const bool descending = select.order_by->descending;
    std::vector<std::size_t> idx(rows.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    // NaN keys sort last in both directions (a comparison with NaN is
    // false, so the first term never orders one); stable_sort keeps ties
    // in scan (id) order.
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       const double x = keys[a];
                       const double y = keys[b];
                       return (descending ? x > y : x < y) ||
                              (std::isnan(y) && !std::isnan(x));
                     });
    if (idx.size() > limit) idx.resize(limit);
    std::vector<ResultRow> out;
    out.reserve(idx.size());
    for (std::size_t i : idx) out.push_back(std::move(rows[i]));
    rows = std::move(out);
  }
  return stamped(std::move(rows));
}

}  // namespace apollo::aqe
