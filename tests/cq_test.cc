// Continuous-query + admission-control suite (`ctest -L cq`).
//
// Covers the four acceptance legs end to end:
//   - incremental correctness: CQ pushes carry exactly the rows a one-shot
//     query would compute, and arrive without re-executing anything
//     (apollo_aqe_queries_total stays flat while updates flow);
//   - reconnect resume: a daemon-side connection drop detaches but keeps
//     the registration; the client's replayed CQRegister resumes the same
//     epoch with no duplicate or missed seq, and push subscriptions
//     re-establish from their cursors;
//   - idle-reaper exemption: connections holding subscriptions or CQs are
//     never reaped, bare connections still are;
//   - tenant overload chaos: an over-quota tenant's one-shot queries shed
//     to degraded cached answers (never errors) with exact per-tenant
//     accounting, while another tenant's CQ pushes keep flowing inside a
//     bounded latency even with scripted kNetSend faults dropping push
//     frames.
//
// Every suite name starts with "CQ" so the tsan name-filtered CI leg picks
// the file up. Daemons bind port 0; waits are bounded deadline loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/fault.h"
#include "cq/admission.h"
#include "cq/cq_engine.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"
#include "temp_wal.h"

namespace apollo::net {
namespace {

Sample MakeSample(TimeNs timestamp, double value) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  sample.provenance = Provenance::kMeasured;
  return sample;
}

std::uint64_t CounterValue(const std::string& name,
                           const obs::Labels& labels = {}) {
  return obs::MetricsRegistry::Global().GetCounter(name, "", labels).Value();
}

// ---- admission controller units ------------------------------------------

TEST(CQAdmission, TokenBucketShedsThenRefills) {
  cq::AdmissionOptions options;
  options.default_quota.rate_per_sec = 10.0;
  options.default_quota.burst = 2.0;
  cq::AdmissionController admission(options);

  const TimeNs t0 = kNsPerSec;  // arbitrary epoch
  EXPECT_TRUE(admission.Admit("a", t0));
  EXPECT_TRUE(admission.Admit("a", t0));
  EXPECT_FALSE(admission.Admit("a", t0));  // bucket empty
  // 100 ms at 10/s refills exactly one token.
  EXPECT_TRUE(admission.Admit("a", t0 + 100 * kNsPerMs));
  EXPECT_FALSE(admission.Admit("a", t0 + 100 * kNsPerMs));

  const cq::TenantAdmissionStats stats = admission.Stats("a");
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_DOUBLE_EQ(stats.rate_per_sec, 10.0);
}

TEST(CQAdmission, UnlimitedTenantNeverSheds) {
  cq::AdmissionController admission;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(admission.Admit("free", kNsPerSec));
  }
  EXPECT_EQ(admission.Stats("free").shed, 0u);
}

TEST(CQAdmission, SetQuotaResetsBucketToNewBurst) {
  cq::AdmissionController admission;
  ASSERT_TRUE(admission.Admit("t", kNsPerSec));  // unlimited so far
  admission.SetQuota("t", {5.0, 2.0});
  EXPECT_TRUE(admission.Admit("t", kNsPerSec));
  EXPECT_TRUE(admission.Admit("t", kNsPerSec));
  EXPECT_FALSE(admission.Admit("t", kNsPerSec));
}

// ---- engine units ---------------------------------------------------------

class CQEngineTest : public ::testing::Test {
 protected:
  CQEngineTest()
      : clock_(RealClock::Instance()),
        broker_(clock_),
        engine_(broker_, MakeOptions()) {
    broker_.CreateTopic("cq.unit", kLocalNode, 1024);
    broker_.AttachPublishObserver(&engine_);
  }
  ~CQEngineTest() override { broker_.AttachPublishObserver(nullptr); }

  static cq::CQOptions MakeOptions() {
    cq::CQOptions options;
    options.update_ring = 4;  // small, so overflow is easy to force
    return options;
  }

  void Publish(double value) {
    const TimeNs now = clock_.Now();
    ASSERT_TRUE(
        broker_.Publish("cq.unit", kLocalNode, now, MakeSample(now, value))
            .ok());
  }

  // Pumps once, appending emitted updates (for any CQ) to `sink`.
  std::size_t PumpInto(std::vector<std::pair<cq::CQInfo, cq::CQUpdate>>* sink,
                       bool accept = true) {
    return engine_.Pump(clock_.Now(), &admission_,
                        [sink, accept](const cq::CQInfo& info,
                                       const cq::CQUpdate& update) {
                          if (accept) sink->emplace_back(info, update);
                          return accept;
                        });
  }

  RealClock& clock_;
  TempWal archiver_;  // outlives broker_'s streams
  Broker broker_;
  cq::AdmissionController admission_;
  cq::CQEngine engine_;
};

TEST_F(CQEngineTest, ValidationRejectsNonIndexableShapes) {
  const TimeNs now = clock_.Now();
  auto not_continuous = engine_.Register(
      1, "default", "q", "SELECT AVG(Metric) FROM cq.unit", 0, 0, now);
  ASSERT_FALSE(not_continuous.ok());

  auto with_where = engine_.Register(
      1, "default", "q",
      "SUBSCRIBE SELECT AVG(Metric) FROM cq.unit WHERE Metric > 1", 0, 0,
      now);
  ASSERT_FALSE(with_where.ok());
  EXPECT_EQ(with_where.error().code(), ErrorCode::kInvalidArgument);

  auto ok = engine_.Register(1, "default", "q",
                             "SUBSCRIBE SELECT AVG(Metric) FROM cq.unit", 0,
                             0, now);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->epoch, 1u);
  EXPECT_FALSE(ok->resumed);
  EXPECT_EQ(engine_.ActiveCount(), 1u);
}

TEST_F(CQEngineTest, SnapshotThenIncrementalUpdatesWithContiguousSeqs) {
  Publish(10.0);
  ASSERT_TRUE(engine_
                  .Register(1, "default", "q",
                            "SUBSCRIBE SELECT AVG(Metric), COUNT(Metric) "
                            "FROM cq.unit",
                            0, 0, clock_.Now())
                  .ok());
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  PumpInto(&got);
  ASSERT_EQ(got.size(), 1u);  // registration snapshot
  EXPECT_EQ(got[0].second.epoch, 1u);
  EXPECT_EQ(got[0].second.seq, 1u);
  ASSERT_EQ(got[0].second.result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].second.result.rows[0].values[1], 1.0);

  for (int i = 0; i < 3; ++i) {
    Publish(20.0 + i);
    PumpInto(&got);
  }
  // Seqs are contiguous from 1 with no duplicates or holes.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second.epoch, 1u);
    EXPECT_EQ(got[i].second.seq, i + 1);
  }
  // A clean pump with nothing dirty emits nothing (no re-evaluation spam).
  const std::size_t emitted = PumpInto(&got);
  EXPECT_EQ(emitted, 0u);
}

TEST_F(CQEngineTest, BackpressureCoalescesWithoutSeqHoles) {
  Publish(1.0);
  ASSERT_TRUE(engine_
                  .Register(1, "default", "q",
                            "SUBSCRIBE SELECT LAST(Metric) FROM cq.unit", 0,
                            0, clock_.Now())
                  .ok());
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  // Refuse delivery while publishing several changes: the undelivered
  // tail must coalesce in place instead of queueing one update per
  // change.
  for (int i = 0; i < 6; ++i) {
    Publish(100.0 + i);
    PumpInto(&got, /*accept=*/false);
  }
  EXPECT_TRUE(got.empty());
  PumpInto(&got, /*accept=*/true);
  ASSERT_FALSE(got.empty());
  // Delivery restarts at seq 1 (nothing was ever delivered), stays
  // contiguous, and the final row is the latest value.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second.seq, i + 1);
  }
  EXPECT_DOUBLE_EQ(got.back().second.result.rows[0].values[0], 105.0);
}

TEST_F(CQEngineTest, ResumeContinuesEpochAndStaleResumeBumpsIt) {
  Publish(1.0);
  ASSERT_TRUE(engine_
                  .Register(1, "default", "q",
                            "SUBSCRIBE SELECT LAST(Metric) FROM cq.unit", 0,
                            0, clock_.Now())
                  .ok());
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  PumpInto(&got);  // deliver the registration snapshot first...
  Publish(2.0);
  PumpInto(&got);  // ...so the change lands as its own seq
  ASSERT_GE(got.size(), 2u);
  const std::uint64_t last_seq = got.back().second.seq;

  // The connection dies; the registration survives detached.
  ASSERT_EQ(engine_.DetachConn(1).size(), 1u);
  EXPECT_EQ(engine_.ActiveCount(), 1u);

  // Reconnect echoing the exact (epoch, seq) the client holds: resumed,
  // same epoch, and no update is re-delivered until something changes.
  auto resumed = engine_.Register(2, "default", "q",
                                  "SUBSCRIBE SELECT LAST(Metric) FROM "
                                  "cq.unit",
                                  1, last_seq, clock_.Now());
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->epoch, 1u);
  EXPECT_EQ(resumed->last_seq, last_seq);
  got.clear();
  PumpInto(&got);
  EXPECT_TRUE(got.empty());
  Publish(3.0);
  PumpInto(&got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second.epoch, 1u);
  EXPECT_EQ(got[0].second.seq, last_seq + 1);

  // A resume the ring can no longer cover (bogus future seq) restarts:
  // epoch bumps and a fresh snapshot arrives as seq 1.
  ASSERT_EQ(engine_.DetachConn(2).size(), 1u);
  auto restarted = engine_.Register(3, "default", "q",
                                    "SUBSCRIBE SELECT LAST(Metric) FROM "
                                    "cq.unit",
                                    1, last_seq + 50, clock_.Now());
  ASSERT_TRUE(restarted.ok());
  EXPECT_FALSE(restarted->resumed);
  EXPECT_EQ(restarted->epoch, 2u);
  got.clear();
  PumpInto(&got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second.epoch, 2u);
  EXPECT_EQ(got[0].second.seq, 1u);
}

TEST_F(CQEngineTest, ThrottledEvaluationStaysDirtyAndRetries) {
  cq::AdmissionOptions options;
  options.tenant_quotas["capped"] = {1e-9, 1.0};  // one admit, ever
  cq::AdmissionController capped(options);
  Publish(1.0);
  ASSERT_TRUE(engine_
                  .Register(1, "capped", "q",
                            "SUBSCRIBE SELECT LAST(Metric) FROM cq.unit", 0,
                            0, clock_.Now())
                  .ok());
  // Registration snapshots are part of the registration round trip; only
  // pump-time re-evaluations are admission-gated. Burn the one token.
  ASSERT_TRUE(capped.Admit("capped", clock_.Now()));
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  engine_.Pump(clock_.Now(), &capped,
               [&](const cq::CQInfo&, const cq::CQUpdate& u) {
                 got.push_back({{}, u});
                 return true;
               });
  got.clear();

  const std::uint64_t throttled_before = CounterValue(
      "apollo_cq_throttled_total", {{"tenant", "capped"}});
  Publish(2.0);
  engine_.Pump(clock_.Now(), &capped,
               [&](const cq::CQInfo&, const cq::CQUpdate& u) {
                 got.push_back({{}, u});
                 return true;
               });
  EXPECT_TRUE(got.empty());  // evaluation shed, CQ stays dirty
  EXPECT_EQ(CounterValue("apollo_cq_throttled_total",
                         {{"tenant", "capped"}}) -
                throttled_before,
            1u);
  // Lift the quota: the still-dirty CQ evaluates on the next pump.
  capped.SetQuota("capped", {0.0, 0.0});
  engine_.Pump(clock_.Now(), &capped,
               [&](const cq::CQInfo&, const cq::CQUpdate& u) {
                 got.push_back({{}, u});
                 return true;
               });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].second.result.rows[0].values[0], 2.0);
}

// A CQ answers from the rolling index over the ring. Where a one-shot query
// would not trust that index, the push must say its answer is partial.
// A push stamps staleness with the executor's saturating rule: a row at
// INT64_MIN is INT64_MAX old, not 0.
TEST_F(CQEngineTest, StalenessSaturatesForTimestampAtInt64Min) {
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  ASSERT_TRUE(broker_.CreateTopic("cq.ancient").ok());
  ASSERT_TRUE(
      broker_.Publish("cq.ancient", kLocalNode, kMin, MakeSample(kMin, 1.0))
          .ok());
  ASSERT_TRUE(engine_
                  .Register(1, "default", "last",
                            "SUBSCRIBE SELECT LAST(Metric) FROM cq.ancient", 0,
                            0, clock_.Now())
                  .ok());
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  PumpInto(&got);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].second.result.rows.size(), 1u);
  EXPECT_EQ(got[0].second.result.rows[0].staleness_ns, kMax);
  EXPECT_EQ(got[0].second.result.max_staleness_ns, kMax);
}

TEST_F(CQEngineTest, HistoryBeyondTheRingPushesDegraded) {
  ASSERT_TRUE(broker_.CreateTopic("cq.hist", kLocalNode, 4, &archiver_).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker_
                    .Publish("cq.hist", kLocalNode, i,
                             MakeSample(i, static_cast<double>(i)))
                    .ok());
  }
  aqe::Executor executor(broker_);
  auto one_shot = executor.Execute(
      "SELECT COUNT(Metric), SUM(Metric), MIN(Metric) FROM cq.hist");
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(one_shot->rows[0].values, (std::vector<double>{10, 45, 0}));
  EXPECT_FALSE(one_shot->degraded);

  ASSERT_TRUE(engine_
                  .Register(1, "default", "agg",
                            "SUBSCRIBE SELECT COUNT(Metric), SUM(Metric), "
                            "MIN(Metric) FROM cq.hist",
                            0, 0, clock_.Now())
                  .ok());
  ASSERT_TRUE(engine_
                  .Register(1, "default", "last",
                            "SUBSCRIBE SELECT LAST(Metric) FROM cq.hist", 0,
                            0, clock_.Now())
                  .ok());
  std::vector<std::pair<cq::CQInfo, cq::CQUpdate>> got;
  PumpInto(&got);
  ASSERT_EQ(got.size(), 2u);
  for (const auto& [info, update] : got) {
    const aqe::ResultSet& result = update.result;
    if (info.name == "agg") {
      // The ring's four rows only, flagged as such.
      EXPECT_EQ(result.rows[0].values, (std::vector<double>{4, 30, 6}));
      EXPECT_TRUE(result.rows[0].degraded);
      EXPECT_TRUE(result.degraded);
    } else {
      // The newest row is always in the ring: exact.
      EXPECT_EQ(result.rows[0].values, (std::vector<double>{9}));
      EXPECT_FALSE(result.degraded);
    }
  }
}

// ---- loopback integration -------------------------------------------------

// Broker + daemon on an ephemeral port with one seeded topic.
class CQLoopbackTest : public ::testing::Test {
 protected:
  CQLoopbackTest()
      : clock_(RealClock::Instance()), broker_(clock_), executor_(broker_) {}

  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("cq.alpha", kLocalNode, 1024).ok());
    for (int i = 0; i < 8; ++i) Publish(10.0 + i);
    StartDaemon({});
  }

  void StartDaemon(DaemonConfig config) {
    // Destroy any previous daemon first: its destructor detaches the
    // broker's publish observer, which would wipe the new daemon's hook
    // if it were still alive after the new one attached.
    daemon_.reset();
    daemon_ = std::make_unique<ApolloDaemon>(broker_, executor_, config);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    if (daemon_ != nullptr) daemon_->Stop();
  }

  void Publish(double value) {
    const TimeNs now = clock_.Now();
    ASSERT_TRUE(
        broker_.Publish("cq.alpha", kLocalNode, now, MakeSample(now, value))
            .ok());
  }

  ClientConfig ClientFor(const char* name, const char* tenant = "") {
    ClientConfig config;
    config.host = "127.0.0.1";
    config.port = daemon_->port();
    config.client_name = name;
    config.tenant = tenant;
    config.request_timeout = 2 * kNsPerSec;
    return config;
  }

  // Drains CQ updates until one satisfies `done` or the deadline passes.
  // Appends everything received to `sink`.
  template <typename Pred>
  bool WaitUpdates(ApolloClient& client, std::vector<CQUpdateMsg>& sink,
                   Pred done, TimeNs timeout = 5 * kNsPerSec) {
    const TimeNs deadline = clock_.Now() + timeout;
    while (clock_.Now() < deadline) {
      for (CQUpdateMsg& update : client.TakeCQUpdates()) {
        sink.push_back(std::move(update));
      }
      if (!sink.empty() && done(sink.back())) return true;
      if (!client.WaitForCQUpdates(200 * kNsPerMs)) continue;
    }
    return false;
  }

  RealClock& clock_;
  Broker broker_;
  aqe::Executor executor_;
  std::unique_ptr<ApolloDaemon> daemon_;
};

TEST_F(CQLoopbackTest, CQPushesMatchOneShotWithoutReExecution) {
  ApolloClient client(ClientFor("cq-correct"));
  const std::string select =
      "SELECT COUNT(Metric), AVG(Metric), MAX(Metric) FROM cq.alpha";
  auto ack = client.CQRegister("watch", "SUBSCRIBE " + select);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->epoch, 1u);

  // The registration snapshot matches a one-shot execution of the same
  // select exactly (columns, sources, values).
  std::vector<CQUpdateMsg> updates;
  ASSERT_TRUE(WaitUpdates(client, updates, [](const CQUpdateMsg& u) {
    return u.seq >= 1;
  }));
  auto oneshot = client.Query(select);
  ASSERT_TRUE(oneshot.ok());
  const aqe::ResultSet& snap = updates.back().result;
  EXPECT_EQ(snap.columns, oneshot->result.columns);
  ASSERT_EQ(snap.rows.size(), oneshot->result.rows.size());
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    EXPECT_EQ(snap.rows[i].source, oneshot->result.rows[i].source);
    EXPECT_EQ(snap.rows[i].values, oneshot->result.rows[i].values);
  }

  // Publish more rows: the refreshed materialized set arrives while the
  // executor's query counter stays flat — pushes are index-maintained,
  // never re-executed.
  const std::uint64_t queries_before =
      CounterValue("apollo_aqe_queries_total");
  for (int i = 0; i < 3; ++i) Publish(50.0 + i);
  ASSERT_TRUE(WaitUpdates(client, updates, [](const CQUpdateMsg& u) {
    return !u.result.rows.empty() && u.result.rows[0].values[0] == 11.0;
  }));
  EXPECT_EQ(CounterValue("apollo_aqe_queries_total"), queries_before);

  // And the pushed rows still agree with a fresh one-shot answer.
  auto fresh = client.Query(select);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(updates.back().result.rows[0].values,
            fresh->result.rows[0].values);

  // Seqs arrived contiguous within the epoch.
  for (std::size_t i = 1; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].epoch, updates[i - 1].epoch);
    EXPECT_EQ(updates[i].seq, updates[i - 1].seq + 1);
  }
  EXPECT_TRUE(client.CQCancel(ack->cq_id).ok());
}

TEST_F(CQLoopbackTest, ReconnectResumesCQAndSubscriptionsExactly) {
  ApolloClient client(ClientFor("cq-resume"));
  auto sub = client.Subscribe("cq.alpha", /*cursor=*/0);
  ASSERT_TRUE(sub.ok());
  auto ack = client.CQRegister(
      "watch", "SUBSCRIBE SELECT COUNT(Metric), LAST(Metric) FROM cq.alpha");
  ASSERT_TRUE(ack.ok());

  // Drain the backlog deliveries and the snapshot.
  std::vector<CQUpdateMsg> updates;
  ASSERT_TRUE(WaitUpdates(client, updates, [](const CQUpdateMsg& u) {
    return u.seq >= 1;
  }));
  std::vector<std::uint64_t> delivered_ids;
  const TimeNs drain_deadline = clock_.Now() + 5 * kNsPerSec;
  while (delivered_ids.size() < 8 && clock_.Now() < drain_deadline) {
    (void)client.WaitForDeliveries(200 * kNsPerMs);
    for (const DeliverMsg& deliver : client.TakeDeliveries()) {
      for (const auto& entry : deliver.entries) {
        delivered_ids.push_back(entry.id);
      }
    }
  }
  ASSERT_EQ(delivered_ids.size(), 8u);
  const std::uint64_t resumes_before =
      CounterValue("apollo_cq_resumes_total");

  // Daemon-side abrupt drop on the next inbound frame.
  FaultInjector fault(0xD0D0);
  FaultSpec drop;
  drop.site = FaultSite::kConnDrop;
  drop.topic = "ping";
  drop.probability = 1.0;
  drop.max_fires = 1;
  fault.Arm(drop);
  daemon_->server().AttachFaultInjector(&fault);
  EXPECT_FALSE(client.Ping().ok());
  daemon_->server().AttachFaultInjector(nullptr);
  EXPECT_FALSE(client.connected());

  // Any request reconnects; Connect replays the subscription (from its
  // cursor) and the CQ registration (with resume epoch/seq).
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(CounterValue("apollo_cq_resumes_total") - resumes_before, 1u);

  Publish(99.0);
  // The resumed CQ continues the same epoch at the very next seq — no
  // duplicate snapshot, no hole.
  const std::uint64_t last_seq = updates.back().seq;
  const std::uint64_t last_epoch = updates.back().epoch;
  std::vector<CQUpdateMsg> after;
  ASSERT_TRUE(WaitUpdates(client, after, [](const CQUpdateMsg& u) {
    return !u.result.rows.empty() && u.result.rows[0].values[1] == 99.0;
  }));
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front().epoch, last_epoch);
  EXPECT_EQ(after.front().seq, last_seq + 1);

  // The replayed subscription picks up exactly past the last entry seen:
  // only the new publish arrives, no duplicates of ids 0..7.
  std::vector<std::uint64_t> new_ids;
  const TimeNs sub_deadline = clock_.Now() + 5 * kNsPerSec;
  while (new_ids.empty() && clock_.Now() < sub_deadline) {
    (void)client.WaitForDeliveries(200 * kNsPerMs);
    for (const DeliverMsg& deliver : client.TakeDeliveries()) {
      for (const auto& entry : deliver.entries) {
        new_ids.push_back(entry.id);
      }
    }
  }
  ASSERT_EQ(new_ids.size(), 1u);
  EXPECT_EQ(new_ids[0], delivered_ids.back() + 1);
}

TEST_F(CQLoopbackTest, IdleReaperSparesSessionsReapsBareConnections) {
  daemon_->Stop();
  DaemonConfig config;
  config.server.idle_timeout = 200 * kNsPerMs;
  StartDaemon(config);

  ApolloClient watcher(ClientFor("cq-watcher"));
  auto ack = watcher.CQRegister(
      "watch", "SUBSCRIBE SELECT LAST(Metric) FROM cq.alpha");
  ASSERT_TRUE(ack.ok());
  std::vector<CQUpdateMsg> updates;
  ASSERT_TRUE(WaitUpdates(watcher, updates, [](const CQUpdateMsg& u) {
    return u.seq >= 1;
  }));

  ApolloClient bare(ClientFor("cq-bare"));
  ASSERT_TRUE(bare.Ping().ok());

  // The bare connection dies within a couple of idle windows; the watcher
  // must survive the same silence because its CQ exempts it.
  const TimeNs deadline = clock_.Now() + 5 * kNsPerSec;
  bool bare_reaped = false;
  while (clock_.Now() < deadline && !bare_reaped) {
    (void)bare.WaitForDeliveries(100 * kNsPerMs);
    bare_reaped = !bare.connected();
  }
  EXPECT_TRUE(bare_reaped);
  EXPECT_TRUE(watcher.connected());

  // Not just connected: pushes still flow on the idle-exempt connection.
  Publish(77.0);
  ASSERT_TRUE(WaitUpdates(watcher, updates, [](const CQUpdateMsg& u) {
    return !u.result.rows.empty() && u.result.rows[0].values[0] == 77.0;
  }));
  EXPECT_TRUE(watcher.connected());
}

// ---- tenant overload chaos ------------------------------------------------

TEST_F(CQLoopbackTest, CQChaosTenantOverloadShedsDegradedOthersKeepFlowing) {
  daemon_->Stop();
  DaemonConfig config;
  cq::TenantQuota quota;
  quota.rate_per_sec = 1e-9;  // effectively never refills during the test
  quota.burst = 1.0;          // exactly one admitted query to warm the cache
  config.admission.tenant_quotas["noisy"] = quota;
  StartDaemon(config);

  // Scripted kNetSend faults on push frames: a dropped kCQUpdate must be
  // retried by the pump (delivery not acknowledged), never skipped.
  FaultInjector fault(0xBEEF);
  FaultSpec send_drop;
  send_drop.site = FaultSite::kNetSend;
  send_drop.topic = "cq_update";
  send_drop.fire_on_hits = {0, 2, 4, 7};  // scripted only, no random term
  fault.Arm(send_drop);
  daemon_->server().AttachFaultInjector(&fault);

  ApolloClient quiet(ClientFor("quiet-client", "quiet"));
  auto ack = quiet.CQRegister(
      "watch", "SUBSCRIBE SELECT LAST(Metric) FROM cq.alpha");
  ASSERT_TRUE(ack.ok());
  std::vector<CQUpdateMsg> updates;
  ASSERT_TRUE(WaitUpdates(quiet, updates, [](const CQUpdateMsg& u) {
    return u.seq >= 1;
  }));

  ApolloClient noisy(ClientFor("noisy-client", "noisy"));
  const std::string sql = "SELECT AVG(Metric) FROM cq.alpha";
  const std::uint64_t admitted_before =
      CounterValue("apollo_admission_admitted_total", {{"tenant", "noisy"}});
  const std::uint64_t shed_before =
      CounterValue("apollo_admission_shed_total", {{"tenant", "noisy"}});

  // One admitted query warms the last-known-good cache...
  auto warm = noisy.Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->result.degraded);

  // ...then the overload: every query past the quota still gets an
  // answer, served degraded from the cache — shed, not dropped.
  constexpr int kOverload = 20;
  int degraded = 0;
  for (int i = 0; i < kOverload; ++i) {
    auto reply = noisy.Query(sql);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    if (reply->result.degraded) ++degraded;
    EXPECT_EQ(reply->result.rows[0].values, warm->result.rows[0].values);
  }
  EXPECT_EQ(degraded, kOverload);
  // Exact accounting: one admission (the warm query), kOverload sheds.
  EXPECT_EQ(CounterValue("apollo_admission_admitted_total",
                         {{"tenant", "noisy"}}) -
                admitted_before,
            1u);
  EXPECT_EQ(CounterValue("apollo_admission_shed_total",
                         {{"tenant", "noisy"}}) -
                shed_before,
            static_cast<std::uint64_t>(kOverload));

  // The quiet tenant's pushes keep arriving inside a bounded window
  // through the overload and the injected push-frame drops, with seqs
  // still contiguous (dropped frames retried, not lost).
  for (int round = 0; round < 5; ++round) {
    const double value = 200.0 + round;
    Publish(value);
    ASSERT_TRUE(WaitUpdates(
        quiet, updates,
        [value](const CQUpdateMsg& u) {
          return !u.result.rows.empty() && u.result.rows[0].values[0] == value;
        },
        2 * kNsPerSec))
        << "round " << round << " push did not arrive in time";
  }
  for (std::size_t i = 1; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].epoch, updates[i - 1].epoch);
    EXPECT_EQ(updates[i].seq, updates[i - 1].seq + 1);
  }
  EXPECT_GT(fault.Fires(FaultSite::kNetSend), 0u);

  // EXPLAIN ANALYZE is never shed and surfaces the tenant's admission
  // accounting in the plan.
  auto plan = noisy.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(plan.ok());
  bool found_admission_row = false;
  for (const auto& row : plan->result.rows) {
    if (row.source.find("admission: tenant=noisy") != std::string::npos) {
      found_admission_row = true;
      EXPECT_NE(row.source.find("shed="), std::string::npos);
    }
  }
  EXPECT_TRUE(found_admission_row);
  daemon_->server().AttachFaultInjector(nullptr);
}

// ---- push coalesced with its ack (stub daemon) -----------------------------

// Stands in for a daemon: answers the hello and pings, and answers every
// kSubscribe / kCQRegister with its ack and a first push in one write, so
// the client reads both in one read. Records the cursor and resume point
// each request carried.
class AckWithPushServer final : public FrameHandler {
 public:
  static constexpr std::uint64_t kSubId = 7;
  static constexpr std::uint64_t kCQId = 3;

  AckWithPushServer()
      : loop_(RealClock::Instance()), server_(loop_, ServerConfig{}, *this) {}
  ~AckWithPushServer() override { Stop(); }
  AckWithPushServer(const AckWithPushServer&) = delete;
  AckWithPushServer& operator=(const AckWithPushServer&) = delete;

  Status Start() {
    Status status = server_.Start();
    if (!status.ok()) return status;
    thread_ = std::thread([this] {
      loop_.Run(std::numeric_limits<TimeNs>::max(), /*stop_when_idle=*/false);
    });
    return status;
  }
  void Stop() {
    if (!thread_.joinable()) return;
    loop_.Stop();
    thread_.join();
    server_.Stop();
  }
  std::uint16_t port() const { return server_.port(); }
  std::vector<std::uint64_t> sub_cursors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sub_cursors_;
  }
  std::vector<std::uint64_t> cq_resume_seqs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cq_resume_seqs_;
  }

  void OnFrame(Connection& conn, const Frame& frame) override {
    Payload payload;
    if (frame.type == MsgType::kHello) {
      HelloAckMsg ack;
      ack.server_name = "ack-with-push";
      ack.Encode(payload);
      conn.SendFrame(MsgType::kHelloAck, frame.request_id, payload);
    } else if (frame.type == MsgType::kPing) {
      conn.SendFrame(MsgType::kPong, frame.request_id, payload);
    } else if (frame.type == MsgType::kSubscribe) {
      SubscribeMsg msg;
      ASSERT_TRUE(SubscribeMsg::Decode(frame.payload, msg));
      {
        std::lock_guard<std::mutex> lock(mu_);
        sub_cursors_.push_back(msg.cursor);
      }
      SubscribeAckMsg ack;
      ack.subscription_id = kSubId;
      ack.start_cursor = msg.cursor == kCursorTail ? 100 : msg.cursor;
      DeliverMsg deliver;
      deliver.subscription_id = kSubId;
      deliver.topic = msg.topic;
      for (std::uint64_t id = ack.start_cursor; id < ack.start_cursor + 3;
           ++id) {
        deliver.entries.push_back({id, static_cast<TimeNs>(id),
                                   MakeSample(static_cast<TimeNs>(id), 1.0)});
      }
      SendBoth(conn, frame.request_id, MsgType::kSubscribeAck, ack,
               MsgType::kDeliver, deliver);
    } else if (frame.type == MsgType::kCQRegister) {
      CQRegisterMsg msg;
      ASSERT_TRUE(CQRegisterMsg::Decode(frame.payload, msg));
      {
        std::lock_guard<std::mutex> lock(mu_);
        cq_resume_seqs_.push_back(msg.resume_seq);
      }
      CQRegisterAckMsg ack;
      ack.cq_id = kCQId;
      ack.epoch = 1;
      ack.seq = msg.resume_seq;
      CQUpdateMsg update;
      update.cq_id = kCQId;
      update.epoch = 1;
      update.seq = msg.resume_seq + 1;
      SendBoth(conn, frame.request_id, MsgType::kCQRegisterAck, ack,
               MsgType::kCQUpdate, update);
    }
  }

 private:
  // Corked, the ack and the push leave in one writev.
  template <typename Ack, typename Push>
  static void SendBoth(Connection& conn, std::uint32_t request_id,
                       MsgType ack_type, const Ack& ack, MsgType push_type,
                       const Push& push) {
    Payload ack_payload;
    ack.Encode(ack_payload);
    Payload push_payload;
    push.Encode(push_payload);
    conn.Cork();
    conn.SendFrame(ack_type, request_id, ack_payload);
    conn.SendFrame(push_type, /*request_id=*/0, push_payload);
    conn.Uncork();
  }

  EventLoop loop_;
  Server server_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> sub_cursors_;
  std::vector<std::uint64_t> cq_resume_seqs_;
  std::thread thread_;
};

// A push read together with its own ack is part of the session: the
// reconnect replay must resume past it, not replay it.
TEST(CQClientSession, PushReadWithItsAckIsNotReplayed) {
  AckWithPushServer stub;
  ASSERT_TRUE(stub.Start().ok());
  ClientConfig config;
  config.port = stub.port();
  config.client_name = "ack-with-push";
  config.request_timeout = 2 * kNsPerSec;
  ApolloClient client(config);

  ASSERT_TRUE(client.Subscribe("cq.alpha").ok());
  ASSERT_TRUE(
      client.CQRegister("watch", "SUBSCRIBE SELECT LAST(Metric) FROM cq.alpha")
          .ok());
  // Both pushes arrived with their acks, before either call returned.
  ASSERT_EQ(client.TakeDeliveries().size(), 1u);
  ASSERT_EQ(client.TakeCQUpdates().size(), 1u);

  // Reconnect: the replayed subscribe starts past delivered ids 100-102,
  // and the replayed registration resumes after seq 1.
  client.Close();
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(stub.sub_cursors(), (std::vector<std::uint64_t>{kCursorTail, 103}));
  EXPECT_EQ(stub.cq_resume_seqs(), (std::vector<std::uint64_t>{0, 1}));
  stub.Stop();
}

}  // namespace
}  // namespace apollo::net
