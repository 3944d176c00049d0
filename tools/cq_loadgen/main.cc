// cq_loadgen: multi-process continuous-query load harness.
//
// Drives N subscriber connections against an apollod, each registering
// one continuous query (SUBSCRIBE SELECT ...), then measures the
// aggregate push throughput and per-subscriber push-gap percentiles the
// daemon sustains at that fan-out. The N connections are split across P
// worker *processes* (re-exec'd from this binary, so each worker has its
// own fd table, allocator, and poll loops — contention patterns match
// real multi-client deployments, not one process hammering itself),
// each worker driving its share from a small thread pool.
//
// Self-contained mode (no --target): the driver starts an in-process
// daemon serving one synthetic topic that a publisher thread updates at
// --publish-hz, so the harness needs nothing running beforehand:
//
//   ./build/tools/cq_loadgen/cq_loadgen --clients 1000 --procs 4
//
// External mode points the same swarm at a running daemon; pass --sql
// for a query over its topics (and --tenant to exercise a quota). One
// command line, wrapped here:
//
//   ./build/tools/cq_loadgen/cq_loadgen --target 127.0.0.1:7401
//       --clients 5000 --sql "SUBSCRIBE SELECT MEAN(Metric) FROM ..."
//       --tenant dashboards
//
// The last stdout line is machine-parseable (bench lane (h) mirrors this
// harness in-process and gates its numbers via tools/check_bench.py):
//
//   cq_loadgen: clients=N procs=P duration_s=D updates=U
//     push_events_per_sec=R p50_push_gap_ns=G50 p99_push_gap_ns=G99
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "net/client.h"
#include "net/daemon.h"
#include "pubsub/broker.h"

using namespace apollo;

namespace {

// Thousands of sockets per process: lift RLIMIT_NOFILE to its hard cap
// before anything opens one.
void RaiseFdLimit() {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

double Percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

struct Options {
  std::string target;  // empty = self-contained
  int clients = 100;
  int procs = 2;
  double duration_s = 5.0;
  double publish_hz = 1000.0;
  std::string topic = "cq.load";
  std::string sql;  // default derived from topic
  std::string tenant;
  bool worker = false;
};

// One worker process: drive `clients` subscriber connections from a
// small thread pool and report updates + gap percentiles on stdout.
int RunWorker(const Options& opt) {
  const std::size_t colon = opt.target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "worker: bad target '%s'\n", opt.target.c_str());
    return 2;
  }
  const std::string host = opt.target.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(
      std::atoi(opt.target.c_str() + colon + 1));
  RealClock& clock = RealClock::Instance();

  const int threads = std::max(
      1, std::min({opt.clients, 16,
                   static_cast<int>(std::thread::hardware_concurrency())}));
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<TimeNs> first_recv{0};
  std::atomic<TimeNs> last_recv{0};
  std::vector<std::vector<double>> gaps(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  const TimeNs deadline = clock.Now() + Seconds(opt.duration_s);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const int share = opt.clients / threads +
                        (t < opt.clients % threads ? 1 : 0);
      std::vector<std::unique_ptr<net::ApolloClient>> swarm;
      std::vector<TimeNs> last(static_cast<std::size_t>(share), 0);
      for (int c = 0; c < share; ++c) {
        net::ClientConfig config;
        config.host = host;
        config.port = port;
        config.tenant = opt.tenant;
        config.client_name = "cq-loadgen";
        auto client = std::make_unique<net::ApolloClient>(std::move(config));
        // Registration names must be unique across every worker process:
        // the daemon resumes a re-registered name instead of creating a
        // second CQ.
        char name[64];
        std::snprintf(name, sizeof name, "lg-%d-%d-%d",
                      static_cast<int>(getpid()), t, c);
        auto ack = client->CQRegister(name, opt.sql);
        if (!ack.ok()) {
          if (failures.fetch_add(1, std::memory_order_relaxed) == 0) {
            std::fprintf(stderr, "worker: register failed: %s\n",
                         ack.error().ToString().c_str());
          }
          continue;
        }
        swarm.push_back(std::move(client));
      }
      // Drain until the deadline; WaitForCQUpdates bounds how long one
      // idle subscriber can stall the sweep.
      auto& local_gaps = gaps[static_cast<std::size_t>(t)];
      while (clock.Now() < deadline && !swarm.empty()) {
        for (std::size_t c = 0; c < swarm.size(); ++c) {
          if (!swarm[c]->WaitForCQUpdates(500 * kNsPerUs)) continue;
          const auto batch = swarm[c]->TakeCQUpdates();
          const TimeNs now = clock.Now();
          updates.fetch_add(batch.size(), std::memory_order_relaxed);
          if (last[c] != 0) {
            local_gaps.push_back(static_cast<double>(now - last[c]));
          }
          last[c] = now;
          TimeNs expected = 0;
          first_recv.compare_exchange_strong(expected, now);
          TimeNs prev = last_recv.load(std::memory_order_relaxed);
          while (prev < now &&
                 !last_recv.compare_exchange_weak(prev, now)) {
          }
        }
      }
    });
  }
  for (auto& worker : pool) worker.join();

  std::vector<double> all_gaps;
  for (auto& g : gaps) all_gaps.insert(all_gaps.end(), g.begin(), g.end());
  const double elapsed =
      ToSeconds(std::max<TimeNs>(1, last_recv.load() - first_recv.load()));
  std::printf("worker: updates=%llu failures=%llu "
              "push_events_per_sec=%.0f p50_push_gap_ns=%.0f "
              "p99_push_gap_ns=%.0f\n",
              static_cast<unsigned long long>(updates.load()),
              static_cast<unsigned long long>(failures.load()),
              static_cast<double>(updates.load()) / elapsed,
              Percentile(all_gaps, 50.0), Percentile(all_gaps, 99.0));
  return failures.load() > 0 ? 1 : 0;
}

// Parse one "key=value" token from a worker summary line.
double ValueOf(const std::string& line, const char* key) {
  const std::size_t pos = line.find(std::string(key) + "=");
  if (pos == std::string::npos) return 0.0;
  return std::atof(line.c_str() + pos + std::strlen(key) + 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--target") == 0) {
      opt.target = next("--target");
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      opt.clients = std::atoi(next("--clients"));
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      opt.procs = std::atoi(next("--procs"));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      opt.duration_s = std::atof(next("--duration"));
    } else if (std::strcmp(argv[i], "--publish-hz") == 0) {
      opt.publish_hz = std::atof(next("--publish-hz"));
    } else if (std::strcmp(argv[i], "--topic") == 0) {
      opt.topic = next("--topic");
    } else if (std::strcmp(argv[i], "--sql") == 0) {
      opt.sql = next("--sql");
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      opt.tenant = next("--tenant");
    } else if (std::strcmp(argv[i], "--worker") == 0) {
      opt.worker = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--target host:port] [--clients N] "
                   "[--procs P] [--duration SEC] [--publish-hz HZ]\n"
                   "          [--topic NAME] [--sql \"SUBSCRIBE SELECT "
                   "...\"] [--tenant NAME]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.clients < 1 || opt.procs < 1 || opt.procs > opt.clients) {
    std::fprintf(stderr, "need --clients >= --procs >= 1\n");
    return 2;
  }
  if (opt.sql.empty()) {
    opt.sql = "SUBSCRIBE SELECT AVG(Metric), MAX(Metric) FROM " + opt.topic;
  }
  RaiseFdLimit();
  if (opt.worker) return RunWorker(opt);

  // Self-contained mode: serve one synthetic topic from an in-process
  // daemon and keep it moving from a publisher thread.
  RealClock& clock = RealClock::Instance();
  std::unique_ptr<Broker> broker;
  std::unique_ptr<aqe::Executor> executor;
  std::unique_ptr<net::ApolloDaemon> daemon;
  std::atomic<bool> stop{false};
  std::thread publisher;
  if (opt.target.empty()) {
    broker = std::make_unique<Broker>(clock);
    broker->CreateTopic(opt.topic, kLocalNode, 4096);
    executor = std::make_unique<aqe::Executor>(*broker);
    net::DaemonConfig config;
    config.cq.max_queries = std::max(8192, opt.clients * 2);
    daemon = std::make_unique<net::ApolloDaemon>(*broker, *executor, config);
    if (Status status = daemon->Start(); !status.ok()) {
      std::fprintf(stderr, "daemon start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    opt.target = "127.0.0.1:" + std::to_string(daemon->port());
    publisher = std::thread([&] {
      const TimeNs period = Seconds(1.0 / opt.publish_hz);
      double v = 0.0;
      while (!stop.load(std::memory_order_acquire)) {
        const TimeNs now = clock.Now();
        (void)broker->Publish(opt.topic, kLocalNode, now,
                              Sample{now, v += 1.0, Provenance::kMeasured});
        std::this_thread::sleep_for(std::chrono::nanoseconds(period));
      }
    });
    std::printf("cq_loadgen: self-contained daemon on %s, publishing %s "
                "at %.0f Hz\n",
                opt.target.c_str(), opt.topic.c_str(), opt.publish_hz);
  }

  // Fork+exec one worker per process so children never inherit the
  // driver's threads (daemon loop, publisher) mid-lock.
  struct Worker {
    pid_t pid;
    int out;
  };
  std::vector<Worker> workers;
  for (int p = 0; p < opt.procs; ++p) {
    const int share = opt.clients / opt.procs +
                      (p < opt.clients % opt.procs ? 1 : 0);
    int pipefd[2];
    if (pipe(pipefd) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      dup2(pipefd[1], STDOUT_FILENO);
      close(pipefd[0]);
      close(pipefd[1]);
      const std::string clients = std::to_string(share);
      const std::string duration = std::to_string(opt.duration_s);
      const char* args[] = {argv[0],
                            "--worker",
                            "--target",
                            opt.target.c_str(),
                            "--clients",
                            clients.c_str(),
                            "--duration",
                            duration.c_str(),
                            "--sql",
                            opt.sql.c_str(),
                            "--tenant",
                            opt.tenant.c_str(),
                            nullptr};
      execv(argv[0], const_cast<char* const*>(args));
      std::perror("execv");
      _exit(127);
    }
    close(pipefd[1]);
    workers.push_back({pid, pipefd[0]});
  }

  double total_updates = 0.0;
  double total_rate = 0.0;
  double total_failures = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  int exit_code = 0;
  for (const Worker& w : workers) {
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = read(w.out, buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    close(w.out);
    int status = 0;
    waitpid(w.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) exit_code = 1;
    total_updates += ValueOf(out, "updates");
    total_rate += ValueOf(out, "push_events_per_sec");
    total_failures += ValueOf(out, "failures");
    // Gap percentiles: report the worst worker, not a merged population
    // — a stalled worker should show, not be averaged away.
    p50 = std::max(p50, ValueOf(out, "p50_push_gap_ns"));
    p99 = std::max(p99, ValueOf(out, "p99_push_gap_ns"));
  }

  if (publisher.joinable()) {
    stop.store(true, std::memory_order_release);
    publisher.join();
  }
  if (daemon) daemon->Stop();

  if (total_updates <= 0.0) exit_code = 1;
  if (total_failures > 0.0) {
    std::fprintf(stderr, "cq_loadgen: %.0f registrations failed\n",
                 total_failures);
  }
  std::printf("cq_loadgen: clients=%d procs=%d duration_s=%.1f "
              "updates=%.0f push_events_per_sec=%.0f "
              "p50_push_gap_ns=%.0f p99_push_gap_ns=%.0f\n",
              opt.clients, opt.procs, opt.duration_s, total_updates,
              total_rate, p50, p99);
  return exit_code;
}
