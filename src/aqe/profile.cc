#include "aqe/profile.h"

#include <sstream>

namespace apollo::aqe {

std::vector<std::string> QueryProfile::ToLines() const {
  std::vector<std::string> lines;
  lines.push_back((analyzed ? std::string("EXPLAIN ANALYZE ")
                            : std::string("EXPLAIN ")) +
                  query_text);
  {
    std::ostringstream os;
    os << "plan: " << (plan_cache_hit ? "cache hit" : "cache miss")
       << "; branches=" << vertices.size();
    lines.push_back(os.str());
  }
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexProfile& v = vertices[i];
    std::ostringstream os;
    os << "vertex[" << i << "] topic=" << v.topic
       << " strategy=" << (v.strategy.empty() ? "?" : v.strategy)
       << " resolved=" << (v.resolved ? "yes" : "no");
    if (analyzed) {
      os << " rows_scanned=" << v.rows_scanned
         << " rows_matched=" << v.rows_matched
         << " rows_returned=" << v.rows_returned;
      if (v.archive_rows > 0) os << " archive_rows=" << v.archive_rows;
      if (v.wal_segments_summarized > 0 || v.wal_segments_pruned > 0 ||
          v.wal_records_read > 0) {
        os << " wal_segments_summarized=" << v.wal_segments_summarized
           << " wal_segments_pruned=" << v.wal_segments_pruned
           << " wal_records_read=" << v.wal_records_read;
      }
      if (v.cold_rows > 0) os << " cold_rows=" << v.cold_rows;
      if (v.cold_blocks_scanned > 0 || v.cold_blocks_pruned > 0) {
        os << " cold_blocks_scanned=" << v.cold_blocks_scanned
           << " cold_blocks_summarized=" << v.cold_blocks_summarized
           << " cold_blocks_pruned=" << v.cold_blocks_pruned;
      }
      os << " degraded=" << (v.degraded ? "yes" : "no")
         << " staleness_ns=" << v.staleness_ns << " time_ns=" << v.exec_ns;
    }
    lines.push_back(os.str());
  }
  if (analyzed) {
    std::ostringstream os;
    os << "total: rows=" << total_rows
       << " degraded=" << (degraded ? "yes" : "no")
       << " max_staleness_ns=" << max_staleness_ns
       << " time_ns=" << total_ns;
    lines.push_back(os.str());
  }
  return lines;
}

std::string QueryProfile::ToText() const {
  std::string out;
  for (const std::string& line : ToLines()) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace apollo::aqe
