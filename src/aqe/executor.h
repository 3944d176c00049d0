// AQE executor: resolves a parsed query into per-vertex stream accesses
// (§3.1: "converts a client query into multiple Information access calls
// which are served by the Query Executor of that Vertex").
//
// Each UNION branch targets one topic. Branches run on the calling thread,
// in branch order. The paper overlaps branches because each is a call to
// another node; here each is an in-process O(1) or window read, so a
// thread-pool fan-out had nothing to overlap and measured as pure cost
// (bench_fig12_apollo_vs_ldms, 4 vCPUs: a UNION of 8 latest-value branches
// took a 25.3 us median on an 8-thread pool and 2.5 us on the calling
// thread). Across nodes, the parallel calls are RemoteQueryEngine's
// per-node legs (net/remote_query.h). Rows come from the in-memory stream
// window; WHERE clauses whose timestamp range reaches below the window
// fall back to the vertex's Archiver.
//
// Hot path: middleware re-issues identical query strings on every placement
// decision, so Execute() caches parsed plans (with per-branch TopicHandles
// resolved at plan time) keyed by query text, and predicate-free aggregate
// selects answer from the stream's O(1) rolling-aggregate index instead of
// scanning the window.
//
// An aggregate over history merges tier summaries (row count, exact sum,
// bounds, latest row): a cold block's instead of decoding the block, and a
// WAL segment's verified prefix's instead of reading its records, when the
// rows lie wholly inside the branch's timestamp range and below the warmer
// tiers; SUM is exact on every path, so the answer is the same bits a read
// of every row gives.
//
// A scanning branch pays per row only for what its answer returns. Its
// WHERE clause is folded once into one closed interval per compared column
// (plus the `!=` values), which tests each row exactly as the literal
// comparisons would; the timestamp interval, saturated to int64, is the
// range the ring, WAL and cold tier read, each keeping only the ids below
// the warmer tier's first row (TierCap, applied by the tier as it reads).
// Every tier
// reaches the scan as ColumnSpans (the ring's and cold blocks' in place,
// WAL records packed), and the filter tests 64 rows at a time into a
// bitmask whose set bits alone the consumers visit. ORDER BY ... LIMIT k
// keeps at most k candidates in a heap during the scan, under one total
// order (NaN keys last in both directions, ties in scan order, so the
// answer equals a stable sort of the scan); between blocks its cut rises
// to the worst key it holds, and ResultRows are built for the winners
// alone. Every branch appends its rows to the caller's ResultSet in place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqe/ast.h"
#include "aqe/parser.h"
#include "aqe/profile.h"
#include "common/expected.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"

namespace apollo::aqe {

// Column label for a select item, e.g. "MAX(timestamp)" or "metric".
std::string SelectItemLabel(const SelectItem& item);

// Evaluates one select item against a stream's O(1) rolling-aggregate
// index snapshot (std::nullopt = empty window). This is the cell the
// executor's "index" strategy emits; the continuous-query engine reuses it
// to maintain materialized rows on publish without re-executing the query.
double IndexAggregateCell(const SelectItem& item,
                          const std::optional<StreamAggregates>& agg);

// Age of a row stamped `timestamp` at `now`: now - timestamp, clamped to
// [0, INT64_MAX]. Any wire client may stamp a row with any int64, so the
// plain difference can overflow; the executor and the continuous-query
// engine stamp every answer's staleness with this.
inline TimeNs StalenessNs(TimeNs now, TimeNs timestamp) {
  TimeNs age = 0;
  if (__builtin_sub_overflow(now, timestamp, &age)) {
    return timestamp < now ? std::numeric_limits<TimeNs>::max() : 0;
  }
  return std::max<TimeNs>(0, age);
}

// What the O(1) paths can serve of one UNION branch, judged from the query
// alone.
enum class IndexShape {
  kNone,    // a WHERE clause, or no aggregate: only a scan answers it
  kLatest,  // every item reads the newest entry: LAST, a bare column, or
            // MAX(Timestamp)
  kIndex,   // any other predicate-free aggregate: the rolling index
};
IndexShape ShapeOf(const Select& select);

// The one rule for answering a branch from the stream's O(1) state instead
// of a scan, shared by the executor, EXPLAIN and the continuous-query
// engine. kLatest branches always qualify and never look at history. A
// kIndex branch qualifies only while no row of the topic has left the ring
// for the WAL or the cold tier (the index covers the ring alone).
bool IndexAnswersExactly(const Select& select, const TelemetryStream& stream);

// True when a branch's answer misses rows the topic's history lost: the
// topic's archiver dropped records after their retries
// (Archiver::Failures()) or its cold tier quarantined a block. Every branch
// but a kLatest one reads the history, so the executor, EXPLAIN and the
// continuous-query engine mark its answer degraded. Both counts only grow,
// so the mark lasts as long as the archiver and cold-tier objects do; a
// restart forgets it.
bool HistoryIncomplete(const Select& select, const TelemetryStream& stream);

struct ResultRow {
  std::string source;  // topic the row came from
  std::vector<double> values;
  // Graceful-degradation surface: `degraded` is set when the row's stream
  // is serving last-known-good / predicted values because its vertex
  // crashed or stalled (cleared by the first measured publish after a
  // supervisor restart). `staleness_ns` is the age of the stream's newest
  // entry at query time, so clients can judge the answer either way.
  bool degraded = false;
  TimeNs staleness_ns = 0;
};

struct ResultSet {
  std::vector<std::string> columns;  // labels of the first SELECT's items
  std::vector<ResultRow> rows;
  // Any row degraded -> the whole answer is flagged; max_staleness_ns is
  // the worst staleness across contributing streams.
  bool degraded = false;
  TimeNs max_staleness_ns = 0;

  std::size_t NumRows() const { return rows.size(); }
};

struct ExecutorOptions {
  // Perspective node for network-latency charging on remote topic access.
  NodeId client_node = kLocalNode;
};

class Executor {
 public:
  explicit Executor(Broker& broker, ExecutorOptions options = {});
  // Exists only because perfbench/ constructs `Executor(broker, nullptr)`
  // (the second argument used to be a query thread pool). Like
  // Stream::FlushEvictions(), it goes once that benchmark stops calling it.
  Executor(Broker& broker, std::nullptr_t) : Executor(broker) {}

  // Parses (or fetches the cached plan) and executes. A query starting
  // with EXPLAIN [ANALYZE] is routed through Explain() and its profile is
  // rendered as a one-column ("plan") result set, one line per row — so
  // every surface that can run a query can also profile one.
  Expected<ResultSet> Execute(const std::string& query_text);

  // Executes a pre-parsed query (no plan caching).
  Expected<ResultSet> ExecuteQuery(const Query& query);

  // Query profiler. `query_text` is the bare SELECT (no EXPLAIN prefix).
  // analyze=false resolves the plan and reports the chosen strategy per
  // branch without executing; analyze=true executes and fills per-vertex
  // row counts, degradation, staleness, and broker-clock timings.
  Expected<QueryProfile> Explain(const std::string& query_text, bool analyze);

  // Strips a leading EXPLAIN / EXPLAIN ANALYZE (case-insensitive).
  // Returns true when a prefix was present; `rest` is the bare query.
  static bool StripExplainPrefix(std::string_view text, std::string_view& rest,
                                 bool& analyze);

  // Cached plans currently held (observability/tests).
  std::size_t PlanCacheSize() const;

 private:
  // A parsed query plus one broker handle per UNION branch, resolved at
  // plan time. `broker_version` detects topic churn; a handle for a topic
  // that did not exist at plan time is invalid and re-resolves on use.
  struct Plan {
    Query query;
    std::vector<TopicHandle> handles;  // parallel to query.selects
    std::uint64_t broker_version = 0;
  };

  // Cache lookup + parse-on-miss, shared by Execute and Explain.
  Expected<std::shared_ptr<const Plan>> ResolvePlan(
      const std::string& query_text, bool* cache_hit);
  Expected<ResultSet> ExecutePlan(const Plan& plan,
                                  QueryProfile* profile = nullptr);
  // Runs one UNION branch and appends its rows to `result`.
  Status ExecuteSelect(const Select& select, TopicHandle handle,
                       ResultSet& result,
                       VertexProfile* profile = nullptr) const;

  void ResolveHandles(Plan& plan) const;

  Broker& broker_;
  ExecutorOptions options_;

  // Registry handles, resolved once at construction (hot-path bumps are
  // single relaxed atomics).
  obs::Counter queries_;
  obs::Counter plan_cache_hits_;
  obs::Counter plan_cache_misses_;
  obs::Histogram query_latency_;

  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plan_cache_;
};

}  // namespace apollo::aqe
