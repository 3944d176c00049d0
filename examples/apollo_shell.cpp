// apollo_shell: a scriptable console over a monitored simulated cluster.
//
// Reads commands from stdin (one per line) and executes them against an
// ApolloService running the standard deployment plan in simulated time:
//
//   run <seconds>         advance virtual time
//   query <sql>           execute an AQE query and print the rows
//                         (EXPLAIN / EXPLAIN ANALYZE prefixes profile it)
//   explain <sql>         shorthand for query EXPLAIN ANALYZE <sql>
//   latest <topic>        print a topic's newest value
//   topics                list broker topics
//   stats                 print service self-telemetry
//   \metrics              Prometheus text exposition of the registry
//   \trace on|off|dump    toggle span tracing / dump Chrome trace JSON
//   write <device> <MB>   issue a write against a device (e.g. compute0.nvme)
//   fail <node> / heal <node>   toggle a node offline/online
//   dot                   print the SCoRe DAG in Graphviz format
//   help / quit
//
// Try:
//   printf 'run 10\nstats\nquit\n' | ./build/examples/apollo_shell
//
// Remote mode: `apollo_shell --connect host:port` attaches to a running
// apollod over the wire protocol instead of simulating locally; query,
// explain, topics, publish, \metrics, and ping work against the daemon.
// `publish` is one synchronous round trip (a kPublishBatch of one sample)
// and prints the entry id the daemon assigned.
//
// Cluster mode: `apollo_shell --cluster host:port,host:port,...` drives a
// replicated apollod cluster. Publishes go through ClusterClient (primary
// first, failover across survivors), queries through the replica-routed
// RemoteQueryEngine, and `\cluster` prints the current membership map.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apollo/apollo_service.h"
#include "apollo/deployment_plan.h"
#include "cluster/cluster.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/remote_query.h"
#include "obs/trace.h"

using namespace apollo;

namespace {

void PrintResult(const aqe::ResultSet& rs) {
  // Profile result sets ("plan" column) are plain text, one line per row.
  if (rs.columns.size() == 1 && rs.columns.front() == "plan") {
    for (const auto& row : rs.rows) std::printf("%s\n", row.source.c_str());
    return;
  }
  std::printf("%-32s", "source");
  for (const std::string& column : rs.columns) {
    std::printf("%-24s", column.c_str());
  }
  std::printf("\n");
  for (const auto& row : rs.rows) {
    std::printf("%-32s", row.source.c_str());
    for (double v : row.values) std::printf("%-24.6g", v);
    std::printf("\n");
  }
}

void PrintHelp() {
  std::printf(
      "commands: run <sec> | query <sql> | explain <sql> | latest <topic> | "
      "topics | stats | compact | \\metrics | \\trace on|off|dump | "
      "write <device> <MB> | fail <node> | heal <node> | dot | "
      "help | quit\n");
}

int RunRemoteShell(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects host:port, got '%s'\n",
                 target.c_str());
    return 2;
  }
  net::ClientConfig config;
  config.host = target.substr(0, colon);
  config.port = static_cast<std::uint16_t>(
      std::atoi(target.c_str() + colon + 1));
  config.client_name = "apollo_shell";
  net::ApolloClient client(config);
  if (Status status = client.Connect(); !status.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", target.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s (%s). commands: query <sql> | explain <sql> "
              "| topics | publish <topic> <value> | \\watch <sql> | "
              "\\poll [sec] | \\unwatch <id> | \\metrics | ping | quit\n",
              target.c_str(), client.server_name().c_str());

  std::string line;
  int watch_counter = 0;
  while (std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    if (!(input >> command)) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "query" || command == "explain") {
      std::string sql;
      std::getline(input, sql);
      if (command == "explain") sql = "EXPLAIN ANALYZE " + sql;
      auto reply = client.Query(sql);
      if (reply.ok()) {
        PrintResult(reply->result);
      } else {
        std::printf("error: %s\n", reply.error().ToString().c_str());
      }
    } else if (command == "topics") {
      auto topics = client.ListTopics();
      if (!topics.ok()) {
        std::printf("error: %s\n", topics.error().ToString().c_str());
        continue;
      }
      for (const TopicInfo& info : *topics) {
        std::printf("%s (node %d)\n", info.name.c_str(), info.home_node);
      }
    } else if (command == "publish") {
      std::string topic;
      double value = 0.0;
      input >> topic >> value;
      Sample sample;
      sample.timestamp = RealClock::Instance().Now();
      sample.value = value;
      auto id = client.Publish(topic, sample.timestamp, sample);
      if (id.ok()) {
        std::printf("published %s = %.6g (entry %llu)\n", topic.c_str(),
                    value, static_cast<unsigned long long>(*id));
      } else {
        std::printf("error: %s\n", id.error().ToString().c_str());
      }
    } else if (command == "\\watch" || command == "watch") {
      // Register a continuous query; the daemon pushes incremental result
      // sets as the underlying aggregates change. Drain them with \poll.
      std::string sql;
      std::getline(input, sql);
      const std::size_t start = sql.find_first_not_of(" \t");
      if (start != std::string::npos) sql.erase(0, start);
      // Accept a bare SELECT: the wire form is SUBSCRIBE SELECT ...
      if (sql.rfind("SUBSCRIBE", 0) != 0 && sql.rfind("subscribe", 0) != 0) {
        sql = "SUBSCRIBE " + sql;
      }
      char name[32];
      std::snprintf(name, sizeof name, "watch-%d", ++watch_counter);
      auto ack = client.CQRegister(name, sql);
      if (ack.ok()) {
        std::printf("watching as cq %llu (%s) epoch=%llu — \\poll to drain, "
                    "\\unwatch %llu to stop\n",
                    static_cast<unsigned long long>(ack->cq_id), name,
                    static_cast<unsigned long long>(ack->epoch),
                    static_cast<unsigned long long>(ack->cq_id));
      } else {
        std::printf("error: %s\n", ack.error().ToString().c_str());
      }
    } else if (command == "\\poll" || command == "poll") {
      double seconds = 1.0;
      input >> seconds;
      (void)client.WaitForCQUpdates(Seconds(seconds));
      auto updates = client.TakeCQUpdates();
      if (updates.empty()) {
        std::printf("(no updates)\n");
      }
      for (const net::CQUpdateMsg& update : updates) {
        std::printf("cq %llu epoch=%llu seq=%llu%s\n",
                    static_cast<unsigned long long>(update.cq_id),
                    static_cast<unsigned long long>(update.epoch),
                    static_cast<unsigned long long>(update.seq),
                    update.result.degraded ? " (degraded)" : "");
        PrintResult(update.result);
      }
    } else if (command == "\\unwatch" || command == "unwatch") {
      unsigned long long id = 0;
      input >> id;
      Status status = client.CQCancel(id);
      std::printf("%s\n", status.ok() ? "cancelled"
                                      : status.ToString().c_str());
    } else if (command == "\\metrics" || command == "metrics") {
      auto text = client.FetchMetricsText();
      if (text.ok()) {
        std::fputs(text->c_str(), stdout);
      } else {
        std::printf("error: %s\n", text.error().ToString().c_str());
      }
    } else if (command == "ping") {
      Status status = client.Ping();
      std::printf("%s\n", status.ok() ? "pong" : status.ToString().c_str());
    } else {
      std::printf("remote commands: query <sql> | explain <sql> | topics | "
                  "publish <topic> <value> | \\watch <sql> | \\poll [sec] | "
                  "\\unwatch <id> | \\metrics | ping | quit\n");
    }
  }
  return 0;
}

int RunClusterShell(const std::string& list) {
  std::vector<net::ClusterPeer> peers;
  std::vector<net::RemoteNode> nodes;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "--cluster expects host:port,host:port,...\n");
      return 2;
    }
    net::ClusterPeer peer;
    peer.name = entry;
    peer.host = entry.substr(0, colon);
    peer.port = static_cast<std::uint16_t>(
        std::atoi(entry.c_str() + colon + 1));
    peers.push_back(peer);
    nodes.push_back(net::RemoteNode{peer.name, peer.host, peer.port});
    start = comma + 1;
    if (comma == list.size()) break;
  }
  if (peers.empty()) {
    std::fprintf(stderr, "--cluster expects host:port,host:port,...\n");
    return 2;
  }

  net::ClusterClient publisher(peers);
  net::RemoteQueryOptions query_options;
  query_options.cluster_mode = true;
  net::RemoteQueryEngine queries(nodes, query_options);
  if (Status status = publisher.RefreshMap(); !status.ok()) {
    std::printf("warning: no node answered the map fetch yet (%s)\n",
                status.ToString().c_str());
  }
  std::printf("cluster shell over %zu nodes. commands: query <sql> | "
              "explain <sql> | publish <topic> <value> | \\cluster | quit\n",
              peers.size());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    if (!(input >> command)) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "query" || command == "explain") {
      std::string sql;
      std::getline(input, sql);
      if (command == "explain") sql = "EXPLAIN ANALYZE " + sql;
      auto rs = queries.Execute(sql);
      if (rs.ok()) {
        if (rs->degraded) std::printf("(degraded answer)\n");
        PrintResult(*rs);
      } else {
        std::printf("error: %s\n", rs.error().ToString().c_str());
      }
    } else if (command == "publish") {
      std::string topic;
      double value = 0.0;
      input >> topic >> value;
      Sample sample;
      sample.timestamp = RealClock::Instance().Now();
      sample.value = value;
      auto id = publisher.Publish(topic, sample.timestamp, sample);
      if (id.ok()) {
        std::printf("published %s = %.6g (entry %llu)\n", topic.c_str(),
                    value, static_cast<unsigned long long>(*id));
      } else {
        std::printf("error: %s\n", id.error().ToString().c_str());
      }
    } else if (command == "\\cluster" || command == "cluster") {
      (void)publisher.RefreshMap();
      auto map = publisher.map();
      if (!map.has_value()) {
        std::printf("no cluster map (is any node up?)\n");
        continue;
      }
      std::printf("map v%llu rf=%u quorum=%u\n",
                  static_cast<unsigned long long>(map->version),
                  map->replication_factor, map->write_quorum);
      for (const cluster::Member& m : map->members) {
        std::printf("  %-24s %-8s gen=%llu\n", m.name.c_str(),
                    cluster::MemberStateName(m.state),
                    static_cast<unsigned long long>(m.generation));
      }
    } else {
      std::printf("cluster commands: query <sql> | explain <sql> | "
                  "publish <topic> <value> | \\cluster | quit\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* connect_target = nullptr;
  const char* cluster_list = nullptr;
  const char* archive_dir = nullptr;
  long wal_segment_bytes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_target = argv[++i];
    } else if (std::strcmp(argv[i], "--cluster") == 0 && i + 1 < argc) {
      cluster_list = argv[++i];
    } else if (std::strcmp(argv[i], "--archive-dir") == 0 && i + 1 < argc) {
      archive_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--wal-segment-bytes") == 0 &&
               i + 1 < argc) {
      wal_segment_bytes = std::atol(argv[++i]);
    }
  }
  if (cluster_list != nullptr) {
    return RunClusterShell(cluster_list);
  }
  if (connect_target != nullptr) {
    return RunRemoteShell(connect_target);
  }

  ClusterConfig cluster_config;
  cluster_config.compute_nodes = 2;
  cluster_config.storage_nodes = 2;
  auto cluster = Cluster::MakeAresLike(cluster_config);

  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  if (archive_dir != nullptr) {
    // Durable shell: evicted rows spill to per-topic WALs, `compact`
    // folds sealed segments into cold blocks, and time-travel queries
    // (`query ... WHERE Timestamp BETWEEN ...`) answer from all three
    // tiers. A restarted shell recovers what the last run persisted.
    options.archive_dir = archive_dir;
    options.coldtier_enabled = true;
    // Small segments seal (and so become compactable) after fewer rows —
    // the default 4 MiB suits daemons, not short interactive sessions.
    if (wal_segment_bytes > 0) {
      options.wal.segment_bytes = static_cast<std::size_t>(wal_segment_bytes);
    }
  }
  ApolloService apollo(options);
  auto plan = DeployStandardMonitoring(apollo, *cluster);
  if (!plan.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 plan.error().ToString().c_str());
    return 1;
  }
  if (archive_dir != nullptr) {
    auto recovered = apollo.Recover();
    if (recovered.ok() &&
        (recovered->topics_recovered > 0 || recovered->cold_rows > 0)) {
      std::printf("recovered %llu topics (%llu rows replayed, %llu cold "
                  "blocks / %llu cold rows)\n",
                  static_cast<unsigned long long>(recovered->topics_recovered),
                  static_cast<unsigned long long>(recovered->records_replayed),
                  static_cast<unsigned long long>(recovered->cold_blocks),
                  static_cast<unsigned long long>(recovered->cold_rows));
    }
  }
  std::printf("apollo_shell: %zu facts + %zu insights deployed over %zu "
              "nodes. 'help' lists commands.\n",
              plan->fact_topics.size(), plan->insight_topics.size(),
              cluster->NumNodes());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    if (!(input >> command)) continue;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "run") {
      double seconds = 1.0;
      input >> seconds;
      apollo.RunFor(Seconds(seconds));
      std::printf("t=%.1fs\n", ToSeconds(apollo.clock().Now()));
    } else if (command == "query" || command == "explain") {
      std::string sql;
      std::getline(input, sql);
      if (command == "explain") sql = "EXPLAIN ANALYZE " + sql;
      auto rs = apollo.Query(sql);
      if (rs.ok()) {
        PrintResult(*rs);
      } else {
        std::printf("error: %s\n", rs.error().ToString().c_str());
      }
    } else if (command == "\\metrics" || command == "metrics") {
      std::fputs(apollo.DumpMetrics().c_str(), stdout);
    } else if (command == "\\trace" || command == "trace") {
      std::string arg;
      input >> arg;
      auto& recorder = obs::TraceRecorder::Global();
      if (arg == "on") {
        recorder.Enable();
        std::printf("tracing on\n");
      } else if (arg == "off") {
        recorder.Disable();
        std::printf("tracing off (%zu spans buffered)\n",
                    recorder.SpanCount());
      } else if (arg == "dump") {
        std::fputs(recorder.ExportChromeTrace().c_str(), stdout);
        std::printf("\n");
      } else {
        std::printf("usage: \\trace on|off|dump\n");
      }
    } else if (command == "latest") {
      std::string topic;
      input >> topic;
      auto value = apollo.LatestValue(topic);
      if (value.ok()) {
        std::printf("%s = %.6g\n", topic.c_str(), *value);
      } else {
        std::printf("error: %s\n", value.error().ToString().c_str());
      }
    } else if (command == "topics") {
      for (const TopicInfo& info : apollo.broker().ListTopics()) {
        std::printf("%s (node %d)\n", info.name.c_str(), info.home_node);
      }
    } else if (command == "stats") {
      const auto stats = apollo.Stats();
      std::printf("facts=%llu insights=%llu hook_calls=%llu "
                  "published=%llu suppressed=%llu (%.1f%%) "
                  "predictions=%llu\n",
                  static_cast<unsigned long long>(stats.fact_vertices),
                  static_cast<unsigned long long>(stats.insight_vertices),
                  static_cast<unsigned long long>(stats.hook_calls),
                  static_cast<unsigned long long>(stats.published),
                  static_cast<unsigned long long>(stats.suppressed),
                  100.0 * stats.SuppressionRatio(),
                  static_cast<unsigned long long>(stats.predictions));
    } else if (command == "compact") {
      auto result = apollo.CompactNow();
      if (result.ok()) {
        std::printf("compacted %zu segments -> %zu blocks (%llu rows, "
                    "%llu -> %llu bytes)\n",
                    result->segments_compacted, result->blocks_written,
                    static_cast<unsigned long long>(result->rows_compacted),
                    static_cast<unsigned long long>(result->raw_bytes),
                    static_cast<unsigned long long>(result->block_bytes));
      } else {
        std::printf("error: %s\n", result.error().ToString().c_str());
      }
    } else if (command == "write") {
      std::string device_name;
      double mb = 1.0;
      input >> device_name >> mb;
      auto device = cluster->FindDevice(device_name);
      if (!device.ok()) {
        std::printf("error: %s\n", device.error().ToString().c_str());
        continue;
      }
      auto result = (*device)->Write(
          static_cast<std::uint64_t>(mb * (1 << 20)), apollo.clock().Now());
      if (result.ok()) {
        std::printf("wrote %.1f MB to %s (done at t=%.3fs)\n", mb,
                    device_name.c_str(), ToSeconds(result->end));
      } else {
        std::printf("error: %s\n", result.error().ToString().c_str());
      }
    } else if (command == "fail" || command == "heal") {
      std::string node_name;
      input >> node_name;
      auto node = cluster->FindNode(node_name);
      if (!node.ok()) {
        std::printf("error: %s\n", node.error().ToString().c_str());
        continue;
      }
      (*node)->SetOnline(command == "heal");
      std::printf("%s is now %s\n", node_name.c_str(),
                  command == "heal" ? "online" : "offline");
    } else if (command == "dot") {
      std::fputs(apollo.graph().ToDot().c_str(), stdout);
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
  }
  return 0;
}
