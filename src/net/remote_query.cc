#include "net/remote_query.h"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "aqe/parser.h"
#include "aqe/query_builder.h"
#include "aqe/remote.h"
#include "cluster/placement.h"
#include "obs/trace.h"
#include "pubsub/telemetry.h"

namespace apollo::net {

RemoteQueryEngine::RemoteQueryEngine(std::vector<RemoteNode> nodes,
                                     RemoteQueryOptions options)
    : nodes_(std::move(nodes)), options_(options) {}

Expected<ResultMsg> RemoteQueryEngine::QueryNode(std::size_t node,
                                                 const std::string& sql,
                                                 bool partial) {
  ClientConfig config;
  config.host = nodes_[node].host;
  config.port = nodes_[node].port;
  config.client_name = "remote-query:" + nodes_[node].name;
  config.request_timeout = options_.node_deadline;
  config.connect_timeout = options_.connect_timeout;
  config.connect_retry = options_.connect_retry;
  // The whole scatter leg — retries included — stays inside the node
  // deadline so one dead node cannot stretch the gather.
  config.connect_retry.deadline = options_.node_deadline;
  ApolloClient client(std::move(config));
  client.AttachFaultInjector(fault_);
  return client.Query(sql, partial);
}

void RemoteQueryEngine::CacheLocked(const std::string& node,
                                    const std::string& sql,
                                    const aqe::ResultSet& result, TimeNs now) {
  if (cache_.size() >= aqe::kLastGoodCacheEntries) cache_.clear();
  cache_[{node, sql}] = CachedResult{result, now};
}

Expected<aqe::ResultSet> RemoteQueryEngine::Execute(const std::string& sql) {
  TRACE_SPAN("net.remote_query", sql);
  if (options_.cluster_mode) return ExecuteCluster(sql);
  return ExecuteBroadcast(sql);
}

Expected<aqe::ResultSet> RemoteQueryEngine::ExecuteBroadcast(
    const std::string& sql) {
  struct NodeReply {
    Expected<ResultMsg> reply{Error(ErrorCode::kUnavailable, "not run")};
  };
  std::vector<NodeReply> replies(nodes_.size());
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    threads.emplace_back([this, i, &sql, &replies] {
      replies[i].reply = QueryNode(i, sql, /*partial=*/true);
    });
  }
  for (std::thread& t : threads) t.join();

  auto& telemetry = GlobalTelemetry();
  Clock& clock = RealClock::Instance();
  const TimeNs now = clock.Now();
  aqe::ResultSet merged;
  std::vector<NodeOutcome> outcomes(nodes_.size());
  bool any_fresh = false;
  Error first_error(ErrorCode::kUnavailable, "no nodes configured");
  bool have_error = false;

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeOutcome& outcome = outcomes[i];
    outcome.node = nodes_[i].name;
    auto& reply = replies[i].reply;
    if (reply.ok()) {
      Status status = aqe::MergeResult(merged, reply->result);
      if (!status.ok()) return Error(status.code(), status.message());
      outcome.ok = true;
      outcome.served_tables = reply->served_tables;
      any_fresh = true;
      CacheLocked(nodes_[i].name, sql, reply->result, now);
      continue;
    }
    outcome.error = reply.error().ToString();
    if (!have_error) {
      first_error = reply.error();
      have_error = true;
    }
    telemetry.net_node_timeouts.Inc();
    auto cached = cache_.find({nodes_[i].name, sql});
    if (cached != cache_.end()) {
      // Last-known-good fallback: stale rows beat a failed query.
      aqe::ResultSet stale = cached->second.result;
      aqe::MarkDegraded(stale, now - cached->second.fetched_at);
      Status status = aqe::MergeResult(merged, stale);
      if (!status.ok()) return Error(status.code(), status.message());
      outcome.from_cache = true;
      telemetry.net_degraded_fallbacks.Inc();
    } else {
      // Nothing to serve for this node; the merged answer is degraded.
      merged.degraded = true;
    }
  }
  last_outcomes_ = std::move(outcomes);

  // Only when every node failed and none had a cached answer does the
  // query itself fail (e.g. a parse error rejected everywhere).
  if (!any_fresh && merged.rows.empty() && merged.columns.empty() &&
      (have_error || nodes_.empty())) {
    return first_error;
  }
  return merged;
}

bool RemoteQueryEngine::RefreshMap() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ClientConfig config;
    config.host = nodes_[i].host;
    config.port = nodes_[i].port;
    config.client_name = "remote-query-map:" + nodes_[i].name;
    config.request_timeout = options_.connect_timeout;
    config.connect_timeout = options_.connect_timeout;
    config.connect_retry.max_attempts = 1;
    ApolloClient client(std::move(config));
    client.AttachFaultInjector(fault_);
    auto map = client.FetchClusterMap();
    if (!map.ok()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    map_ = std::move(*map);
    return true;
  }
  return false;
}

Expected<aqe::ResultSet> RemoteQueryEngine::ExecuteCluster(
    const std::string& sql) {
  RefreshMap();  // stale map (or none) degrades to the broadcast path
  std::optional<cluster::ClusterMap> map;
  {
    std::lock_guard<std::mutex> lock(mu_);
    map = map_;
  }
  if (!map.has_value()) return ExecuteBroadcast(sql);

  std::string_view bare = sql;
  bool analyze = false;
  const bool is_explain = aqe::Executor::StripExplainPrefix(sql, bare, analyze);
  auto parsed = aqe::Parse(std::string(bare));
  if (!parsed.ok()) return parsed.error();

  // Placement ring over the CONFIGURED member names (the same walk the
  // daemons use), restricted to live members for primary selection.
  std::vector<std::string> member_names;
  for (const cluster::Member& m : map->members) member_names.push_back(m.name);
  cluster::PlacementRing ring(member_names);

  // Distinct tables -> ordered candidate replicas.
  std::map<std::string, std::vector<std::string>> candidates;
  for (const aqe::Select& sel : parsed->selects) {
    if (candidates.count(sel.table)) continue;
    std::vector<const cluster::Member*> replicas =
        cluster::AliveReplicasFor(ring, *map, sel.table);
    std::vector<std::string> names;
    for (const cluster::Member* m : replicas) {
      // Only members we can actually dial.
      if (std::any_of(nodes_.begin(), nodes_.end(),
                      [&](const RemoteNode& n) { return n.name == m->name; }))
        names.push_back(m->name);
    }
    if (names.empty()) {
      // No live replica known: try every configured node in order.
      for (const RemoteNode& n : nodes_) names.push_back(n.name);
    }
    candidates[sel.table] = std::move(names);
  }

  auto node_index = [this](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].name == name) return i;
    }
    return nodes_.size();
  };
  auto subquery_for = [&](const std::set<std::string>& tables) {
    std::string text = aqe::ToString(aqe::FilterQuery(
        *parsed, [&](const std::string& t) { return tables.count(t) > 0; }));
    if (is_explain) text = (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") + text;
    return text;
  };

  auto& telemetry = GlobalTelemetry();
  Clock& clock = RealClock::Instance();
  aqe::ResultSet merged;
  std::vector<NodeOutcome> outcomes(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    outcomes[i].node = nodes_[i].name;
  }
  std::set<std::string> remaining;  // tables still unanswered
  for (const auto& [table, cands] : candidates) remaining.insert(table);
  std::set<std::string> failed_nodes;
  bool any_fresh = false;
  Error first_error(ErrorCode::kUnavailable, "no live replica answered");

  // Two bounded rounds: the primary assignment, then one re-route of the
  // failed nodes' tables to their next surviving replica.
  for (int round = 0; round < 2 && !remaining.empty(); ++round) {
    std::map<std::string, std::set<std::string>> assignment;  // node->tables
    for (const std::string& table : remaining) {
      for (const std::string& cand : candidates[table]) {
        if (failed_nodes.count(cand)) continue;
        assignment[cand].insert(table);
        break;
      }
    }
    if (assignment.empty()) break;
    struct Leg {
      std::size_t node;
      std::string sub_sql;
      std::set<std::string> tables;
      Expected<ResultMsg> reply{Error(ErrorCode::kUnavailable, "not run")};
    };
    std::vector<Leg> legs;
    for (auto& [name, tables] : assignment) {
      const std::size_t idx = node_index(name);
      if (idx >= nodes_.size()) continue;
      legs.push_back(Leg{idx, subquery_for(tables), tables});
    }
    std::vector<std::thread> threads;
    threads.reserve(legs.size());
    for (Leg& leg : legs) {
      threads.emplace_back([this, &leg] {
        leg.reply = QueryNode(leg.node, leg.sub_sql, /*partial=*/false);
      });
    }
    for (std::thread& t : threads) t.join();
    const TimeNs now = clock.Now();
    for (Leg& leg : legs) {
      NodeOutcome& outcome = outcomes[leg.node];
      if (leg.reply.ok()) {
        Status status = aqe::MergeResult(merged, leg.reply->result);
        if (!status.ok()) return Error(status.code(), status.message());
        outcome.ok = true;
        outcome.served_tables.insert(outcome.served_tables.end(),
                                     leg.tables.begin(), leg.tables.end());
        any_fresh = true;
        for (const std::string& t : leg.tables) remaining.erase(t);
        std::lock_guard<std::mutex> lock(mu_);
        CacheLocked(nodes_[leg.node].name, leg.sub_sql, leg.reply->result,
                    now);
        continue;
      }
      outcome.error = leg.reply.error().ToString();
      first_error = leg.reply.error();
      failed_nodes.insert(nodes_[leg.node].name);
      telemetry.net_node_timeouts.Inc();
    }
  }

  // Whatever is still unanswered goes to the last-known-good cache,
  // keyed by the PRIMARY assignment (the stable key in a calm cluster).
  if (!remaining.empty()) {
    const TimeNs now = clock.Now();
    std::map<std::string, std::set<std::string>> assignment;
    for (const std::string& table : remaining) {
      if (!candidates[table].empty()) {
        assignment[candidates[table].front()].insert(table);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    bool all_cached = !assignment.empty();
    for (auto& [name, tables] : assignment) {
      auto cached = cache_.find({name, subquery_for(tables)});
      if (cached == cache_.end()) {
        all_cached = false;
        continue;
      }
      aqe::ResultSet stale = cached->second.result;
      aqe::MarkDegraded(stale, now - cached->second.fetched_at);
      Status status = aqe::MergeResult(merged, stale);
      if (!status.ok()) return Error(status.code(), status.message());
      const std::size_t idx = node_index(name);
      if (idx < nodes_.size()) outcomes[idx].from_cache = true;
      telemetry.net_degraded_fallbacks.Inc();
    }
    if (!all_cached) merged.degraded = true;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    last_outcomes_ = std::move(outcomes);
  }
  if (!any_fresh && merged.rows.empty() && merged.columns.empty() &&
      !candidates.empty()) {
    return first_error;
  }
  return merged;
}

std::vector<NodeOutcome> RemoteQueryEngine::LastOutcomes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_outcomes_;
}

}  // namespace apollo::net
