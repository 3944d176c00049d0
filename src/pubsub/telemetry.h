// Telemetry record types flowing through Apollo's pub-sub fabric, plus the
// fabric's own health counters.
//
// The paper stores Information as a tuple (timestamp, fact/insight value,
// predicted|measured). Sample is that tuple; it is trivially copyable so the
// Archiver can persist it as a fixed binary record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace apollo {

enum class Provenance : std::uint8_t { kMeasured = 0, kPredicted = 1 };

struct Sample {
  TimeNs timestamp = 0;
  double value = 0.0;
  Provenance provenance = Provenance::kMeasured;

  bool measured() const { return provenance == Provenance::kMeasured; }

  friend bool operator==(const Sample& a, const Sample& b) {
    return a.timestamp == b.timestamp && a.value == b.value &&
           a.provenance == b.provenance;
  }
};

static_assert(std::is_trivially_copyable_v<Sample>);

// Consecutive rows of one tier as columns, the batch every tier hands a
// scan: row i is the sample (ts[i], values[i], provenance[i]). Valid only
// inside the callback that received it.
struct ColumnSpan {
  const TimeNs* ts = nullptr;
  const double* values = nullptr;
  const Provenance* provenance = nullptr;
  std::size_t size = 0;

  Sample At(std::size_t i) const {
    return Sample{ts[i], values[i], provenance[i]};
  }
};

// Rows packed into columns and handed out as ColumnSpans. A buffer kept
// across reads allocates only when a read is larger than any before it.
struct ColumnBuffer {
  std::vector<TimeNs> ts;
  std::vector<double> values;
  std::vector<Provenance> provenance;

  std::size_t size() const { return ts.size(); }
  void Resize(std::size_t n) {
    ts.resize(n);
    values.resize(n);
    provenance.resize(n);
  }
  void Push(const Sample& sample) {
    ts.push_back(sample.timestamp);
    values.push_back(sample.value);
    provenance.push_back(sample.provenance);
  }
  void Append(const ColumnSpan& rows) {
    ts.insert(ts.end(), rows.ts, rows.ts + rows.size);
    values.insert(values.end(), rows.values, rows.values + rows.size);
    provenance.insert(provenance.end(), rows.provenance,
                      rows.provenance + rows.size);
  }
  // Rows [begin, end), valid until the buffer next changes.
  ColumnSpan View(std::size_t begin, std::size_t end) const {
    return ColumnSpan{ts.data() + begin, values.data() + begin,
                      provenance.data() + begin, end - begin};
  }
};

// Fabric self-telemetry: how the monitoring plane itself is doing. A thin
// façade over the process-wide obs::MetricsRegistry — every field is a
// handle to a named counter in the registry, so the same numbers appear in
// the Prometheus exposition (ApolloService::DumpMetrics) that the code and
// tests read here. Bumps are relaxed atomics, safe from producers, the
// event loop, and query threads concurrently.
//
// A failed persist or a dropped publish used to vanish silently; these
// counters make every loss surface observable (and testable under chaos).
//
// This struct is the one place the fabric's counter names and help texts
// are declared. Each field registers itself through Reg() in the
// constructor, which also records it in fields_; the snapshot-completeness
// test walks that list to prove every field is its own bound registry cell
// and that Reset() zeroes it.
struct TelemetryCounters {
  TelemetryCounters();

  // Broker publish path.
  obs::Counter publishes;
  obs::Counter publish_drops;     // injected drops
  obs::Counter publish_retries;   // backoff retries
  obs::Counter publish_failures;  // retries exhausted

  // Broker fetch path.
  obs::Counter fetch_timeouts;  // injected timeouts
  obs::Counter fetch_retries;
  obs::Counter fetch_failures;

  // Archiver path.
  obs::Counter archive_writes;
  obs::Counter archive_retries;
  obs::Counter archive_write_failures;  // retries exhausted
  // Every failed pwrite/fsync attempt (before any retry), so a
  // struggling disk is visible even while retries are still absorbing it.
  obs::Counter archive_write_errors;
  obs::Counter archive_fsyncs;
  obs::Counter archive_fsync_failures;
  obs::Counter archive_rotations;
  obs::Counter archive_read_errors;  // query-path scans
  // WAL segment prefixes that reads merged from their summary, or skipped
  // on its timestamp bounds, without reading their records.
  obs::Counter archive_segments_summarized;
  obs::Counter archive_segments_pruned;

  // WAL recovery (startup scans of existing segments).
  obs::Counter archive_recovered_records;
  obs::Counter archive_truncated_bytes;
  obs::Counter archive_corrupt_segments;
  obs::Counter archive_quarantined_segments;

  // Supervision (SCoRe vertex lifecycle).
  obs::Counter vertex_crashes;
  obs::Counter vertex_stalls;
  obs::Counter vertex_restarts;
  obs::Counter vertex_give_ups;
  obs::Counter degraded_marked;
  obs::Counter degraded_cleared;

  // Stream eviction -> archive handoff.
  obs::Counter stream_evictions;

  // Network fabric (src/net): wire traffic and loss surfaces. Byte counters
  // cover framed payload + header bytes actually written/read on sockets.
  obs::Counter net_bytes_sent;
  obs::Counter net_bytes_received;
  obs::Counter net_messages_sent;
  obs::Counter net_messages_received;
  obs::Counter net_connections_opened;
  obs::Counter net_connections_closed;
  obs::Counter net_conn_drops;        // injected kConnDrop closes
  obs::Counter net_send_failures;     // injected kNetSend + socket errors
  obs::Counter net_recv_drops;        // injected kNetRecv frame drops
  obs::Counter net_protocol_errors;   // bad magic/version/CRC on a conn
  obs::Counter net_backpressure_skips;  // deliveries skipped: outbuf full
  obs::Counter net_idle_closes;       // connections reaped by idle timeout
  obs::Counter net_node_timeouts;     // scatter-gather nodes past deadline
  obs::Counter net_degraded_fallbacks;  // node answers served from cache

  // Wire ingest: every publish, single ones included, is a kPublishBatch.
  obs::Counter net_batch_publishes;   // kPublishBatch frames handled
  obs::Counter net_batch_samples;     // samples carried in those frames
  obs::Counter net_batch_decode_errors;  // malformed/injected batch rejects
  obs::Counter net_batch_sample_errors;  // per-sample failures (ack bitmap)

  // Cluster layer (placement, membership, replication, resync).
  obs::Counter cluster_heartbeats_sent;
  obs::Counter cluster_heartbeat_failures;  // probe round-trips that failed
  obs::Counter cluster_peer_suspects;       // alive -> suspect transitions
  obs::Counter cluster_peer_deaths;         // -> dead transitions
  obs::Counter cluster_peer_recoveries;     // dead peer seen again
  obs::Counter cluster_map_pushes;          // kClusterMap pushes to clients
  obs::Counter cluster_forwarded_publishes;  // runs proxied to the primary
  obs::Counter cluster_replication_batches;  // kReplicate round-trips sent
  obs::Counter cluster_replication_failures;  // failed/refused replicates
  obs::Counter cluster_quorum_failures;     // publishes NACKed: quorum unmet
  obs::Counter cluster_resync_topics;       // topics caught up from a peer
  obs::Counter cluster_resync_entries;      // entries copied during resync

  // Tests only: zeroes every cell of the process-wide registry, these
  // counters included (MetricsRegistry::ResetAllForTest).
  void Reset();

  // (field name, handle) for every counter this façade registered, in
  // declaration order. The snapshot-completeness test iterates this to
  // prove Reset() covers the whole struct.
  const std::vector<std::pair<std::string, obs::Counter>>& fields() const {
    return fields_;
  }

 private:
  obs::Counter Reg(const char* field, const char* metric, const char* help);

  std::vector<std::pair<std::string, obs::Counter>> fields_;
};

// Process-wide counters. Tests Reset() them at setup; concurrent bumps are
// exact (atomics), reads are racy-by-design snapshots.
TelemetryCounters& GlobalTelemetry();

}  // namespace apollo
