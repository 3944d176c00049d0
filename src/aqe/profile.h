// Query profiles returned by Executor::Explain — the AQE's answer to
// EXPLAIN / EXPLAIN ANALYZE. One VertexProfile per UNION branch records
// which access strategy served the branch (the O(1) latest fast path, the
// rolling-aggregate index, a window scan, or a scan merged with archived
// rows), how many rows it touched, and — under ANALYZE — how long the
// branch took on the broker's clock (deterministic under SimClock).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace apollo::aqe {

struct VertexProfile {
  std::string topic;
  bool resolved = false;        // handle valid at plan/exec time
  std::string strategy;         // latest | index | scan | scan+archive[+cold]
  std::uint64_t rows_scanned = 0;   // window + archive entries visited
  std::uint64_t rows_matched = 0;   // entries passing WHERE
  std::uint64_t rows_returned = 0;  // rows emitted to the result set
  std::uint64_t archive_rows = 0;   // WAL rows merged into the scan
  // WAL segments whose verified prefix was merged from its summary without
  // a read, segments whose prefix the range missed, and the records read
  // from disk (and checked) to answer. Summarized rows count in
  // archive_rows and rows_matched, not in rows_scanned.
  std::uint64_t wal_segments_summarized = 0;
  std::uint64_t wal_segments_pruned = 0;
  std::uint64_t wal_records_read = 0;
  std::uint64_t cold_rows = 0;      // cold-tier rows merged into the scan
  // Blocks whose rows entered the branch, decoded or summarized; of them,
  // the ones merged from their summary without a read. Summarized rows
  // count in cold_rows and rows_matched, not in rows_scanned.
  std::uint64_t cold_blocks_scanned = 0;
  std::uint64_t cold_blocks_summarized = 0;
  std::uint64_t cold_blocks_pruned = 0;   // blocks skipped via zone maps
  bool degraded = false;
  TimeNs staleness_ns = 0;
  TimeNs exec_ns = 0;  // ANALYZE only; broker-clock elapsed
};

struct QueryProfile {
  std::string query_text;
  bool analyzed = false;        // EXPLAIN ANALYZE (executed) vs EXPLAIN
  bool plan_cache_hit = false;  // plan came from the text-keyed cache
  std::vector<VertexProfile> vertices;
  bool degraded = false;        // any branch degraded
  TimeNs max_staleness_ns = 0;
  TimeNs total_ns = 0;  // ANALYZE only; broker-clock elapsed
  std::uint64_t total_rows = 0;

  // Stable human/machine-readable rendering, one line per entry — the shell
  // shows this verbatim and tests match against it.
  std::string ToText() const;
  std::vector<std::string> ToLines() const;
};

}  // namespace apollo::aqe
