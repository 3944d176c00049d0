// Remote (scatter-gather) query helpers.
//
// A fabric query fans one UNION query out to every daemon: each daemon
// executes only the branches whose topics it serves (FilterQuery), and the
// client-side RemoteQueryEngine merges the partial ResultSets back into one
// answer (MergeResult), rolling up the degraded/staleness flags the same
// way Executor does across branches of a local query.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "aqe/ast.h"
#include "aqe/executor.h"
#include "common/expected.h"

namespace apollo::aqe {

// Branches of `query` whose table satisfies `serves`. Served table names
// are appended to `served` (when non-null) in branch order.
Query FilterQuery(const Query& query,
                  const std::function<bool(const std::string&)>& serves,
                  std::vector<std::string>* served = nullptr);

// Appends `part`'s rows to `merged` and rolls up the degraded flag and
// worst-case staleness. The first non-empty part establishes the column
// set; a later part with different columns is rejected (the daemons
// disagree on the query shape).
Status MergeResult(ResultSet& merged, const ResultSet& part);

// Marks every row (and the set) degraded with staleness at least
// `staleness_ns` — applied to last-known-good answers served from the
// client-side cache when a node misses its deadline.
void MarkDegraded(ResultSet& result, TimeNs staleness_ns);

// Entries a last-known-good answer cache holds — the daemon's answers for
// shed queries and RemoteQueryEngine's per-(node, query) answers. A cache
// that is full is cleared before the next insert.
inline constexpr std::size_t kLastGoodCacheEntries = 256;

}  // namespace apollo::aqe
