#include "pubsub/telemetry.h"

namespace apollo {

obs::Counter TelemetryCounters::Reg(const char* field, const char* metric,
                                    const char* help) {
  obs::Counter counter =
      obs::MetricsRegistry::Global().GetCounter(metric, help);
  fields_.emplace_back(field, counter);
  return counter;
}

TelemetryCounters::TelemetryCounters() {
  publishes = Reg("publishes", "apollo_publishes_total",
                  "Broker publishes attempted");
  publish_drops = Reg("publish_drops", "apollo_publish_drops_total",
                      "Publishes dropped by injected faults");
  publish_retries = Reg("publish_retries", "apollo_publish_retries_total",
                        "Publish backoff retries");
  publish_failures = Reg("publish_failures", "apollo_publish_failures_total",
                         "Publishes failed after retries");
  fetch_timeouts = Reg("fetch_timeouts", "apollo_fetch_timeouts_total",
                       "Fetches timed out by injected faults");
  fetch_retries = Reg("fetch_retries", "apollo_fetch_retries_total",
                      "Fetch backoff retries");
  fetch_failures = Reg("fetch_failures", "apollo_fetch_failures_total",
                       "Fetches failed after retries");
  archive_writes = Reg("archive_writes", "apollo_archive_writes_total",
                       "Archive records appended");
  archive_retries = Reg("archive_retries", "apollo_archive_retries_total",
                        "Archive append backoff retries");
  archive_write_failures =
      Reg("archive_write_failures", "apollo_archive_write_failures_total",
          "Archive appends failed after retries");
  archive_write_errors =
      Reg("archive_write_errors", "apollo_archive_write_errors_total",
          "Archive write/flush/fsync errors before retry");
  archive_fsyncs = Reg("archive_fsyncs", "apollo_archive_fsyncs_total",
                       "Archive segment fsyncs issued");
  archive_fsync_failures =
      Reg("archive_fsync_failures", "apollo_archive_fsync_failures_total",
          "Archive segment fsync failures");
  archive_rotations = Reg("archive_rotations",
                          "apollo_archive_rotations_total",
                          "Archive segment rotations");
  archive_read_errors =
      Reg("archive_read_errors", "apollo_archive_read_errors_total",
          "Archive scans that failed on the query path");
  archive_segments_summarized = Reg(
      "archive_segments_summarized", "apollo_archive_segments_summarized_total",
      "WAL segment prefixes a read merged from their summary, unread");
  archive_segments_pruned =
      Reg("archive_segments_pruned", "apollo_archive_segments_pruned_total",
          "WAL segment prefixes a read skipped on their timestamp bounds");
  archive_recovered_records =
      Reg("archive_recovered_records", "apollo_archive_recovered_records_total",
          "Valid records recovered by startup WAL scans");
  archive_truncated_bytes =
      Reg("archive_truncated_bytes", "apollo_archive_truncated_bytes_total",
          "Torn/corrupt tail bytes truncated at startup");
  archive_corrupt_segments =
      Reg("archive_corrupt_segments", "apollo_archive_corrupt_segments_total",
          "Segments with any truncation or quarantine");
  archive_quarantined_segments =
      Reg("archive_quarantined_segments",
          "apollo_archive_quarantined_segments_total",
          "Segments renamed *.corrupt on open");
  vertex_crashes = Reg("vertex_crashes", "apollo_vertex_crashes_total",
                       "SCoRe vertex crashes observed");
  vertex_stalls = Reg("vertex_stalls", "apollo_vertex_stalls_total",
                      "Silent vertex stalls converted to crashes");
  vertex_restarts = Reg("vertex_restarts", "apollo_vertex_restarts_total",
                        "Supervisor restarts issued");
  vertex_give_ups = Reg("vertex_give_ups", "apollo_vertex_give_ups_total",
                        "Vertices given up on after max restarts");
  degraded_marked = Reg("degraded_marked", "apollo_degraded_marked_total",
                        "Streams marked degraded");
  degraded_cleared = Reg("degraded_cleared", "apollo_degraded_cleared_total",
                         "Streams cleared from degraded");
  stream_evictions = Reg("stream_evictions", "apollo_stream_evictions_total",
                         "Window entries evicted to an archiver");
  net_bytes_sent = Reg("net_bytes_sent", "apollo_net_bytes_sent_total",
                       "Wire bytes written to sockets");
  net_bytes_received =
      Reg("net_bytes_received", "apollo_net_bytes_received_total",
          "Wire bytes read from sockets");
  net_messages_sent = Reg("net_messages_sent", "apollo_net_messages_sent_total",
                          "Wire frames sent");
  net_messages_received =
      Reg("net_messages_received", "apollo_net_messages_received_total",
          "Wire frames received and dispatched");
  net_connections_opened =
      Reg("net_connections_opened", "apollo_net_connections_opened_total",
          "Connections accepted or established");
  net_connections_closed =
      Reg("net_connections_closed", "apollo_net_connections_closed_total",
          "Connections closed (any reason)");
  net_conn_drops = Reg("net_conn_drops", "apollo_net_conn_drops_total",
                       "Connections dropped by injected kConnDrop faults");
  net_send_failures =
      Reg("net_send_failures", "apollo_net_send_failures_total",
          "Frame sends failed (injected or socket error)");
  net_recv_drops = Reg("net_recv_drops", "apollo_net_recv_drops_total",
                       "Received frames dropped by injected kNetRecv faults");
  net_protocol_errors =
      Reg("net_protocol_errors", "apollo_net_protocol_errors_total",
          "Connections closed on bad magic/version/CRC");
  net_backpressure_skips =
      Reg("net_backpressure_skips", "apollo_net_backpressure_skips_total",
          "Subscription deliveries skipped: outbound queue full");
  net_idle_closes = Reg("net_idle_closes", "apollo_net_idle_closes_total",
                        "Connections reaped by the idle timeout");
  net_node_timeouts =
      Reg("net_node_timeouts", "apollo_net_node_timeouts_total",
          "Scatter-gather node queries past their deadline");
  net_degraded_fallbacks =
      Reg("net_degraded_fallbacks", "apollo_net_degraded_fallbacks_total",
          "Node answers served from last-known-good cache");
  net_batch_publishes =
      Reg("net_batch_publishes", "apollo_net_batch_publishes_total",
          "Batch publish frames handled by daemons");
  net_batch_samples =
      Reg("net_batch_samples", "apollo_net_batch_samples_total",
          "Samples carried in batch publish frames");
  net_batch_decode_errors =
      Reg("net_batch_decode_errors", "apollo_net_batch_decode_errors_total",
          "Batch publish frames rejected before handoff");
  net_batch_sample_errors =
      Reg("net_batch_sample_errors", "apollo_net_batch_sample_errors_total",
          "Per-sample batch failures reported in ack bitmaps");
  cluster_heartbeats_sent =
      Reg("cluster_heartbeats_sent", "apollo_cluster_heartbeats_sent_total",
          "Membership probes sent to peers");
  cluster_heartbeat_failures =
      Reg("cluster_heartbeat_failures",
          "apollo_cluster_heartbeat_failures_total",
          "Membership probe round-trips that failed or were dropped");
  cluster_peer_suspects =
      Reg("cluster_peer_suspects", "apollo_cluster_peer_suspects_total",
          "Peer transitions from alive to suspect");
  cluster_peer_deaths =
      Reg("cluster_peer_deaths", "apollo_cluster_peer_deaths_total",
          "Peer transitions to dead (failed over)");
  cluster_peer_recoveries =
      Reg("cluster_peer_recoveries", "apollo_cluster_peer_recoveries_total",
          "Dead peers observed again (restart or partition heal)");
  cluster_map_pushes =
      Reg("cluster_map_pushes", "apollo_cluster_map_pushes_total",
          "Cluster map pushes to connected clients on membership change");
  cluster_forwarded_publishes =
      Reg("cluster_forwarded_publishes",
          "apollo_cluster_forwarded_publishes_total",
          "Publish runs proxied to the topic's primary");
  cluster_replication_batches =
      Reg("cluster_replication_batches",
          "apollo_cluster_replication_batches_total",
          "Replicate round-trips sent to secondaries");
  cluster_replication_failures =
      Reg("cluster_replication_failures",
          "apollo_cluster_replication_failures_total",
          "Replicate round-trips that failed or were refused");
  cluster_quorum_failures =
      Reg("cluster_quorum_failures", "apollo_cluster_quorum_failures_total",
          "Publish runs NACKed because the write quorum was not met");
  cluster_resync_topics =
      Reg("cluster_resync_topics", "apollo_cluster_resync_topics_total",
          "Topics caught up from a peer during resync");
  cluster_resync_entries =
      Reg("cluster_resync_entries", "apollo_cluster_resync_entries_total",
          "Entries copied from peers during resync");
}

void TelemetryCounters::Reset() {
  obs::MetricsRegistry::Global().ResetAllForTest();
}

TelemetryCounters& GlobalTelemetry() {
  static TelemetryCounters* counters = new TelemetryCounters();
  return *counters;
}

}  // namespace apollo
