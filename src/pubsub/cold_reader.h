// ColdReaderBase: how the archiver (and through it, AQE) sees the cold
// tier without depending on src/coldtier.
//
// The compactor drains sealed WAL segments into columnar blocks; once a
// segment is manifest-committed its rows leave the WAL and are only
// reachable here. Archiver<Sample> holds a borrowed pointer to the tier
// so the executor's scan path can extend a range read past the oldest WAL
// segment: cold rows are strictly older than every WAL row (compaction
// always drains the oldest sealed segments first).
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "common/expected.h"
#include "pubsub/telemetry.h"

namespace apollo {

// Per-scan accounting, surfaced through EXPLAIN ANALYZE.
struct ColdScanStats {
  std::uint64_t blocks_total = 0;    // blocks considered
  std::uint64_t blocks_pruned = 0;   // skipped via zone map
  std::uint64_t blocks_scanned = 0;  // decoded and row-filtered
  std::uint64_t rows_visited = 0;    // rows emitted to the visitor
  std::uint64_t blocks_quarantined = 0;  // failed decode, renamed .corrupt
  std::uint64_t read_errors = 0;     // unreadable/injected-fault blocks
};

class ColdReaderBase {
 public:
  virtual ~ColdReaderBase() = default;

  // Visits every cold row with timestamp in [from_ts, to_ts] in block
  // order (oldest block first, rows in stored order). Unreadable or
  // corrupt blocks are skipped and counted in `stats`, never fatal: the
  // scan still returns every row the healthy blocks hold. `visit` must not
  // start another scan on the same thread (blocks decode into a reused
  // per-thread buffer).
  virtual Status ScanRange(
      TimeNs from_ts, TimeNs to_ts,
      const std::function<void(std::uint64_t id, TimeNs timestamp,
                               const Sample& sample)>& visit,
      ColdScanStats* stats) = 0;

  // Total rows committed to the cold tier (from the manifest; no file IO).
  virtual std::uint64_t ColdRowCount() const = 0;
};

}  // namespace apollo
