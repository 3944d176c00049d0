// Chaos tests: the fabric under injected faults.
//
// Deterministic (SimClock) legs prove crash -> degraded -> supervised
// restart -> recovered, stall detection, give-up, and loss accounting
// under a <=10% publish-drop rate. A real-time leg (also run under tsan)
// hammers AQE queries from concurrent threads while faults fire and a
// vertex is force-crashed mid-run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apollo/apollo_service.h"
#include "common/fault.h"
#include "pubsub/telemetry.h"
#include "score/supervisor.h"

namespace apollo {
namespace {

// Hook whose value tracks virtual time, so change suppression never kicks
// in and every poll publishes.
MonitorHook TimeValuedHook(const std::string& name) {
  MonitorHook hook;
  hook.metric_name = name;
  hook.cost = 0;
  hook.read = [](TimeNs now) {
    return static_cast<double>(now % 1'000'003);
  };
  return hook;
}

ApolloOptions SimOptions() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.supervisor.check_interval = Millis(50);
  options.supervisor.stall_timeout = Millis(200);
  options.supervisor.initial_restart_backoff = Millis(20);
  options.supervisor.healthy_reset = Seconds(1);
  return options;
}

FactDeployment FixedFact(TimeNs interval) {
  FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = interval;
  return deployment;
}

// Entry ids must be strictly increasing: a retried publish that was
// actually applied twice would show up as a duplicate id here.
void ExpectNoDoubleCounting(ApolloService& service,
                            const std::string& topic) {
  std::uint64_t cursor = 0;
  auto entries = service.broker().Fetch(topic, kLocalNode, cursor);
  ASSERT_TRUE(entries.ok());
  std::set<std::uint64_t> ids;
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& entry : *entries) {
    EXPECT_TRUE(ids.insert(entry.id).second)
        << "duplicate entry id " << entry.id << " on " << topic;
    if (!first) {
      EXPECT_GT(entry.id, prev);
    }
    prev = entry.id;
    first = false;
  }
}

TEST(ChaosTest, CrashedVertexDegradesAndSupervisorRecovers) {
  GlobalTelemetry().Reset();
  ApolloService service(SimOptions());
  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m"), FixedFact(Millis(10))).ok());
  InsightVertexConfig insight;
  insight.topic = "i";
  insight.upstream = {"m"};
  insight.pull_interval = Millis(10);
  ASSERT_TRUE(service.DeployInsight(insight, SumInsight()).ok());
  auto fact = service.graph().FindFact("m");
  ASSERT_TRUE(fact.ok());
  auto sum = service.graph().FindInsight("i");
  ASSERT_TRUE(sum.ok());

  FaultInjector injector(/*seed=*/7);
  service.AttachFaultInjector(&injector);
  ASSERT_TRUE(service.RunFor(Millis(100)).ok());

  // The same cycle for a fact, then for an insight.
  const std::vector<std::pair<std::string, Vertex*>> vertices = {
      {"m", *fact}, {"i", *sum}};
  for (const auto& [topic, vertex] : vertices) {
    SCOPED_TRACE(topic);
    const std::string last = "SELECT LAST(metric) FROM " + topic;
    auto healthy = service.Query(last);
    ASSERT_TRUE(healthy.ok());
    EXPECT_FALSE(healthy->degraded);

    // Crash the vertex on its next timer firing.
    FaultSpec crash;
    crash.site = FaultSite::kVertexPoll;
    crash.topic = topic;
    crash.fire_on_hits = {0};
    injector.Arm(crash);
    ASSERT_TRUE(service.RunFor(Millis(20)).ok());
    EXPECT_TRUE(vertex->crashed());

    // Before the supervisor's restart lands, queries still answer — from
    // last-known-good data, flagged degraded with visible staleness.
    auto degraded = service.Query(last);
    ASSERT_TRUE(degraded.ok());
    EXPECT_TRUE(degraded->degraded);
    EXPECT_GT(degraded->max_staleness_ns, 0);
    ASSERT_EQ(degraded->NumRows(), 1u);
    EXPECT_TRUE(degraded->rows[0].degraded);

    // Let the supervisor restart it and fresh data flow.
    ASSERT_TRUE(service.RunFor(Seconds(1)).ok());
    EXPECT_FALSE(vertex->crashed());
    auto recovered = service.Query(last);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered->degraded);
    EXPECT_LE(recovered->max_staleness_ns, Millis(100));
    ExpectNoDoubleCounting(service, topic);
  }

  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_GE(service.supervisor()->crashes_seen(), 2u);
  EXPECT_GE(service.supervisor()->restarts_issued(), 2u);
  EXPECT_GE(GlobalTelemetry().vertex_crashes.Value(), 2u);
  EXPECT_GE(GlobalTelemetry().vertex_restarts.Value(), 2u);
  EXPECT_GE(GlobalTelemetry().degraded_marked.Value(), 2u);
  EXPECT_GE(GlobalTelemetry().degraded_cleared.Value(), 2u);
}

TEST(ChaosTest, StallDetectionConvertsSilentTimerDeath) {
  GlobalTelemetry().Reset();
  ApolloService service(SimOptions());
  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m"), FixedFact(Millis(10))).ok());
  auto fact = service.graph().FindFact("m");
  ASSERT_TRUE(fact.ok());

  FaultInjector injector;
  service.AttachFaultInjector(&injector);
  ASSERT_TRUE(service.RunFor(Millis(50)).ok());

  // The timer dies without flagging a crash: only the supervisor's
  // last-fire gap detection can see it.
  FaultSpec stall;
  stall.site = FaultSite::kVertexStall;
  stall.fire_on_hits = {0};
  injector.Arm(stall);
  ASSERT_TRUE(service.RunFor(Millis(20)).ok());
  EXPECT_FALSE((*fact)->crashed()) << "stall must not flag a crash itself";

  ASSERT_TRUE(service.RunFor(Seconds(2)).ok());
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_GE(service.supervisor()->stalls_detected(), 1u);
  EXPECT_GE(service.supervisor()->restarts_issued(), 1u);
  EXPECT_FALSE((*fact)->crashed());
  auto result = service.Query("SELECT LAST(metric) FROM m");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degraded);
}

TEST(ChaosTest, SupervisorGivesUpAndNodeTurnsUnavailable) {
  GlobalTelemetry().Reset();
  ApolloOptions options = SimOptions();
  options.supervisor.max_restarts = 2;
  ApolloService service(options);
  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m"), FixedFact(Millis(10))).ok());

  FaultInjector injector;
  service.AttachFaultInjector(&injector);
  ASSERT_TRUE(service.RunFor(Millis(50)).ok());
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_EQ(service.supervisor()->KnownNodes(), 1u);
  EXPECT_EQ(service.supervisor()->AvailableNodes(), 1u);

  // Crash on every poll: each restart dies immediately, so the restart
  // budget drains and the supervisor gives up.
  FaultSpec crash;
  crash.site = FaultSite::kVertexPoll;
  crash.probability = 1.0;
  injector.Arm(crash);
  ASSERT_TRUE(service.RunFor(Seconds(5)).ok());

  EXPECT_GE(service.supervisor()->give_ups(), 1u);
  EXPECT_EQ(service.supervisor()->AvailableNodes(), 0u);
  EXPECT_GE(GlobalTelemetry().vertex_give_ups.Value(), 1u);

  // The stream still answers from last-known-good data, marked degraded.
  auto result = service.Query("SELECT LAST(metric) FROM m");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->NumRows(), 1u);
}

TEST(ChaosTest, PublishDropsUnderTenPercentLoseNothingWithRetry) {
  GlobalTelemetry().Reset();
  ApolloService service(SimOptions());
  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m"), FixedFact(Millis(10))).ok());
  auto fact = service.graph().FindFact("m");
  ASSERT_TRUE(fact.ok());

  FaultInjector injector(/*seed=*/1234);
  FaultSpec drop;
  drop.site = FaultSite::kPublish;
  drop.probability = 0.10;  // the acceptance scenario's drop rate
  injector.Arm(drop);
  service.AttachFaultInjector(&injector);

  ASSERT_TRUE(service.RunFor(Seconds(2)).ok());

  const VertexStats& stats = (*fact)->stats();
  EXPECT_GT(stats.hook_calls.load(), 100u);
  EXPECT_GT(GlobalTelemetry().publish_drops.Value(), 0u)
      << "the fault actually fired";
  EXPECT_GT(GlobalTelemetry().publish_retries.Value(), 0u);
  // Loss accounting closes exactly: every poll either published once or
  // surfaced a failure — nothing silently lost, nothing double-applied.
  EXPECT_EQ(stats.published.load() + stats.publish_failures.load(),
            stats.hook_calls.load());
  ExpectNoDoubleCounting(service, "m");

  auto result = service.Query("SELECT COUNT(*), AVG(metric) FROM m");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degraded);
}

// Real-time leg, included in the tsan suite: concurrent query threads,
// a ~5% publish-drop rate, and a vertex force-crashed mid-run. Every
// query must return success within a generous deadline.
TEST(ChaosTest, ConcurrentQueriesUnderFaultsRealTime) {
  GlobalTelemetry().Reset();
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  options.supervisor.check_interval = Millis(20);
  options.supervisor.stall_timeout = Millis(200);
  options.supervisor.initial_restart_backoff = Millis(5);
  ApolloService service(options);

  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m0"), FixedFact(Millis(5))).ok());
  ASSERT_TRUE(
      service.DeployFact(TimeValuedHook("m1"), FixedFact(Millis(5))).ok());
  InsightVertexConfig insight;
  insight.topic = "sum";
  insight.upstream = {"m0", "m1"};
  insight.pull_interval = Millis(10);
  ASSERT_TRUE(service.DeployInsight(insight, SumInsight()).ok());

  FaultInjector injector(/*seed=*/99);
  FaultSpec drop;
  drop.site = FaultSite::kPublish;
  drop.probability = 0.05;
  injector.Arm(drop);
  service.AttachFaultInjector(&injector);

  ASSERT_TRUE(service.Start().ok());

  constexpr TimeNs kQueryDeadline = Seconds(2);
  std::atomic<bool> stop{false};
  std::atomic<int> queries{0};
  std::atomic<int> failures{0};
  std::atomic<int> deadline_misses{0};
  std::atomic<int> degraded_seen{0};
  auto query_loop = [&](const std::string& text) {
    while (!stop.load(std::memory_order_acquire)) {
      const auto start = std::chrono::steady_clock::now();
      auto result = service.Query(text);
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      ++queries;
      if (!result.ok()) ++failures;
      if (elapsed > kQueryDeadline) ++deadline_misses;
      if (result.ok() && result->degraded) ++degraded_seen;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread q1(query_loop, "SELECT LAST(metric) FROM m0");
  std::thread q2(query_loop,
                 "SELECT LAST(metric) FROM sum UNION "
                 "SELECT LAST(metric) FROM m1");

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Kill one vertex from outside the loop thread; the supervisor must
  // bring it back while queries keep flowing.
  auto fact = service.graph().FindFact("m0");
  ASSERT_TRUE(fact.ok());
  (*fact)->ForceCrash();

  // Wait (bounded) for the supervised restart and recovery.
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    recovered = !(*fact)->crashed();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  q1.join();
  q2.join();
  service.Stop();

  EXPECT_TRUE(recovered) << "supervisor failed to restart m0";
  EXPECT_GT(queries.load(), 50);
  EXPECT_EQ(failures.load(), 0) << "queries must keep answering";
  EXPECT_EQ(deadline_misses.load(), 0);
  ASSERT_NE(service.supervisor(), nullptr);
  EXPECT_GE(service.supervisor()->crashes_seen(), 1u);
  EXPECT_GE(service.supervisor()->restarts_issued(), 1u);
  ExpectNoDoubleCounting(service, "m0");
  ExpectNoDoubleCounting(service, "m1");
}

}  // namespace
}  // namespace apollo
