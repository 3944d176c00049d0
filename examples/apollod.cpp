// apollod: the per-node Apollo daemon.
//
// Deploys the standard monitoring plan over a small simulated cluster,
// starts the real-time service, and serves its topics, streams, and AQE
// queries over the wire protocol. Connect with:
//
//   ./build/examples/apollod --port 7401 &
//   ./build/examples/apollo_shell --connect 127.0.0.1:7401
//
// With --port 0 (the default) the kernel picks a free port, printed on the
// first line as "apollod listening on <host>:<port>". The daemon runs
// until stdin reaches EOF or a "quit" line arrives.
//
// Cluster mode: `--cluster host:port,host:port,...` lists the full member
// set (names are the host:port strings) and `--cluster-self host:port`
// says which entry this process is (default: the entry whose port matches
// --port, else the first). Clustered daemons replicate publishes to
// `--cluster-rf` replicas and ack once `--cluster-quorum` hold the run;
// the simulated monitoring plan is NOT deployed (local vertices would
// write one replica behind the cluster's back).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apollo/apollo_service.h"
#include "apollo/deployment_plan.h"
#include "cluster/cluster.h"

using namespace apollo;

namespace {

// "host:port,host:port,..." -> peers named by their own endpoint string.
bool ParseClusterList(const std::string& list,
                      std::vector<net::ClusterPeer>& peers) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0) {
      return false;
    }
    net::ClusterPeer peer;
    peer.name = entry;
    peer.host = entry.substr(0, colon);
    peer.port = static_cast<std::uint16_t>(
        std::atoi(entry.c_str() + colon + 1));
    if (peer.port == 0) return false;
    peers.push_back(std::move(peer));
    start = comma + 1;
    if (comma == list.size()) break;
  }
  return !peers.empty();
}

// "tenant=rate[:burst]" (tenant "*" sets the default quota).
bool ParseTenantQuota(const std::string& spec, net::DaemonConfig& config) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const std::string tenant = spec.substr(0, eq);
  cq::TenantQuota quota;
  char* end = nullptr;
  quota.rate_per_sec = std::strtod(spec.c_str() + eq + 1, &end);
  if (end == spec.c_str() + eq + 1) return false;
  if (*end == ':') quota.burst = std::strtod(end + 1, &end);
  if (*end != '\0') return false;
  if (tenant == "*") {
    config.admission.default_quota = quota;
  } else {
    config.admission.tenant_quotas[tenant] = quota;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::DaemonConfig config;
  std::string name = "apollod";
  std::string cluster_list;
  std::string cluster_self;
  std::string archive_dir;
  long compact_interval_s = 0;
  long wal_segment_bytes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      config.server.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--archive-dir") == 0 && i + 1 < argc) {
      archive_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--compact-interval") == 0 &&
               i + 1 < argc) {
      compact_interval_s = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--wal-segment-bytes") == 0 &&
               i + 1 < argc) {
      wal_segment_bytes = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--cluster") == 0 && i + 1 < argc) {
      cluster_list = argv[++i];
    } else if (std::strcmp(argv[i], "--cluster-self") == 0 && i + 1 < argc) {
      cluster_self = argv[++i];
    } else if (std::strcmp(argv[i], "--cluster-rf") == 0 && i + 1 < argc) {
      config.cluster.replication_factor =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--cluster-quorum") == 0 &&
               i + 1 < argc) {
      config.cluster.write_quorum =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--tenant-quota") == 0 && i + 1 < argc) {
      if (!ParseTenantQuota(argv[++i], config)) {
        std::fprintf(stderr,
                     "--tenant-quota expects tenant=rate[:burst] "
                     "(tenant '*' sets the default), got '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--cq-eval-cost") == 0 && i + 1 < argc) {
      // Tokens one CQ evaluation charges against its tenant's bucket.
      config.cq.eval_cost = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--name NAME]\n"
                   "          [--archive-dir DIR] [--compact-interval SECS]\n"
                   "          [--wal-segment-bytes N]\n"
                   "          [--cluster host:port,...]"
                   " [--cluster-self host:port]\n"
                   "          [--cluster-rf N] [--cluster-quorum N]\n"
                   "          [--tenant-quota tenant=rate[:burst]]"
                   "...\n",
                   argv[0]);
      return 2;
    }
  }
  config.server.server_name = name;
  if (!cluster_list.empty()) {
    if (!ParseClusterList(cluster_list, config.cluster.members)) {
      std::fprintf(stderr, "--cluster expects host:port,host:port,...\n");
      return 2;
    }
    config.cluster.enabled = true;
    if (cluster_self.empty()) {
      // Default self: the member whose port matches --port, else first.
      config.cluster.self = config.cluster.members.front().name;
      for (const net::ClusterPeer& p : config.cluster.members) {
        if (p.port == config.server.port) config.cluster.self = p.name;
      }
    } else {
      config.cluster.self = cluster_self;
    }
    const net::ClusterPeer* self = nullptr;
    for (const net::ClusterPeer& p : config.cluster.members) {
      if (p.name == config.cluster.self) self = &p;
    }
    if (self == nullptr) {
      std::fprintf(stderr, "--cluster-self %s is not in the member list\n",
                   config.cluster.self.c_str());
      return 2;
    }
    config.server.port = self->port;
  }

  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  if (!archive_dir.empty()) {
    // Durable topics: evicted rows land in per-topic WALs under
    // --archive-dir and the background compactor folds sealed segments
    // into cold blocks, so range queries reach past every retention tier
    // and a restarted daemon answers from what the last run persisted.
    options.archive_dir = archive_dir;
    options.coldtier_enabled = true;
    if (compact_interval_s > 0) {
      options.coldtier_compact_interval = Seconds(compact_interval_s);
    }
    if (wal_segment_bytes > 0) {
      options.wal.segment_bytes = static_cast<std::size_t>(wal_segment_bytes);
    }
  }
  ApolloService apollo(options);
  std::size_t fact_topics = 0;
  std::size_t insight_topics = 0;
  // Must outlive the service: the deployed monitor hooks poll its devices.
  std::unique_ptr<Cluster> cluster;
  if (!config.cluster.enabled) {
    ClusterConfig cluster_config;
    cluster_config.compute_nodes = 2;
    cluster_config.storage_nodes = 2;
    cluster = Cluster::MakeAresLike(cluster_config);
    auto plan = DeployStandardMonitoring(apollo, *cluster);
    if (!plan.ok()) {
      std::fprintf(stderr, "deployment failed: %s\n",
                   plan.error().ToString().c_str());
      return 1;
    }
    fact_topics = plan->fact_topics.size();
    insight_topics = plan->insight_topics.size();
  }
  if (!archive_dir.empty()) {
    auto recovered = apollo.Recover();
    if (recovered.ok()) {
      std::printf(
          "recovered %llu topics (%llu rows replayed, %llu cold blocks / "
          "%llu cold rows)\n",
          static_cast<unsigned long long>(recovered->topics_recovered),
          static_cast<unsigned long long>(recovered->records_replayed),
          static_cast<unsigned long long>(recovered->cold_blocks),
          static_cast<unsigned long long>(recovered->cold_rows));
    } else {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.error().ToString().c_str());
    }
  }
  // Cluster mode serves replicated topics only: the simulated monitoring
  // vertices publish straight into the local broker, which would put rows
  // on one replica behind the cluster's back.
  if (Status status = apollo.Start(); !status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto port = apollo.StartDaemon(config);
  if (!port.ok()) {
    std::fprintf(stderr, "daemon failed: %s\n",
                 port.error().ToString().c_str());
    return 1;
  }
  if (config.cluster.enabled) {
    std::printf("apollod listening on %s:%u (cluster %s, %zu members)\n",
                config.server.bind_address.c_str(), *port,
                config.cluster.self.c_str(), config.cluster.members.size());
  } else {
    std::printf("apollod listening on %s:%u (%zu facts + %zu insights)\n",
                config.server.bind_address.c_str(), *port, fact_topics,
                insight_topics);
  }
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
  }
  apollo.Stop();
  return 0;
}
