// RemoteQueryEngine: scatter-gather AQE queries across N apollod daemons.
//
// Execute() sends one query to every node with kFlagPartial (each daemon
// executes only the UNION branches whose topics it serves) on one thread
// per node, bounded by a per-node deadline, then merges the partial
// ResultSets with aqe::MergeResult.
//
// Degraded answers instead of failed queries: a node that misses its
// deadline (stalled daemon, dropped connection, network fault) contributes
// its last-known-good rows from a per-(node, query) cache, marked
// degraded=true with staleness = age of the cached answer — the same
// graceful-degradation contract the local executor applies to crashed
// vertices. A node with no cached answer contributes nothing and the merged
// set is flagged degraded, but the query still returns.
//
// Cluster mode (options.cluster_mode): with replication every replica
// serves a topic, so broadcasting partial queries would double-count
// rows. Instead the engine keeps a ClusterMap (refreshed from the first
// reachable node per Execute) and routes each table's branches to the
// table's current primary; a node that fails its leg gets its tables
// re-routed once to the next surviving replica before the last-known-good
// cache is consulted — so queries keep answering through a node death
// within two bounded rounds.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "cluster/membership.h"
#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "net/client.h"

namespace apollo::net {

struct RemoteNode {
  std::string name;  // label reported in outcomes
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RemoteQueryOptions {
  // Per-node budget for connect + query; a node past it falls back to the
  // last-known-good cache.
  TimeNs node_deadline = 2 * kNsPerSec;
  TimeNs connect_timeout = 500 * kNsPerMs;
  RetryPolicy connect_retry;
  // Replica-aware routing (see the header comment). Node names must
  // match the cluster's configured member names.
  bool cluster_mode = false;
};

// Per-node account of the last Execute() (tests and EXPLAIN-style
// introspection).
struct NodeOutcome {
  std::string node;
  bool ok = false;          // fresh answer merged
  bool from_cache = false;  // degraded last-known-good answer merged
  std::vector<std::string> served_tables;
  std::string error;  // failure detail when !ok
};

class RemoteQueryEngine {
 public:
  explicit RemoteQueryEngine(std::vector<RemoteNode> nodes,
                             RemoteQueryOptions options = {});

  // Scatter-gathers `sql` (plain or EXPLAIN [ANALYZE]) across every node.
  // Fails only when the query itself is bad (every node rejects it) —
  // unreachable nodes degrade the answer instead.
  Expected<aqe::ResultSet> Execute(const std::string& sql);

  // Outcomes of the most recent Execute(), one per node in node order.
  std::vector<NodeOutcome> LastOutcomes() const;

  std::size_t NodeCount() const { return nodes_.size(); }

  // Injector attached to every per-node client (kNetSend/kNetRecv/
  // kConnDrop on the client side).
  void AttachFaultInjector(FaultInjector* injector) { fault_ = injector; }

 private:
  struct CachedResult {
    aqe::ResultSet result;
    TimeNs fetched_at = 0;
  };

  // One scatter leg: sends `sql` to node index `node` and returns the
  // reply (bounded by node_deadline).
  Expected<ResultMsg> QueryNode(std::size_t node, const std::string& sql,
                                bool partial);
  // Broadcast-partial path (non-cluster and map-less fallback).
  Expected<aqe::ResultSet> ExecuteBroadcast(const std::string& sql);
  // Replica-routed path.
  Expected<aqe::ResultSet> ExecuteCluster(const std::string& sql);
  // Updates map_ from the first reachable node. Returns true on success.
  bool RefreshMap();

  std::vector<RemoteNode> nodes_;
  RemoteQueryOptions options_;
  FaultInjector* fault_ = nullptr;

  mutable std::mutex mu_;
  // Records `result` as node `node`'s last-known-good answer to `sql`.
  // Caller holds mu_.
  void CacheLocked(const std::string& node, const std::string& sql,
                   const aqe::ResultSet& result, TimeNs now);

  // Last-known-good answers keyed by (node name, query text). Bounded:
  // cleared when it holds aqe::kLastGoodCacheEntries.
  std::map<std::pair<std::string, std::string>, CachedResult> cache_;
  std::vector<NodeOutcome> last_outcomes_;
  std::optional<cluster::ClusterMap> map_;  // cluster mode only
};

}  // namespace apollo::net
