// Fault-injection subsystem: injector determinism, retry/backoff policy,
// and the observability of broker/archiver failures.
#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"
#include "pubsub/telemetry.h"
#include "temp_wal.h"

namespace apollo {
namespace {

TEST(FaultInjectorTest, UnarmedSiteIsTransparent) {
  FaultInjector injector;
  EXPECT_FALSE(injector.Evaluate(FaultSite::kPublish, "t").has_value());
  EXPECT_EQ(injector.Hits(FaultSite::kPublish), 0u);
}

TEST(FaultInjectorTest, ScriptedScheduleFiresOnExactHits) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.fire_on_hits = {1, 3};
  injector.Arm(spec);

  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) {
    fired.push_back(
        injector.Evaluate(FaultSite::kPublish, "any").has_value());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_EQ(injector.Hits(FaultSite::kPublish), 5u);
  EXPECT_EQ(injector.Fires(FaultSite::kPublish), 2u);
}

TEST(FaultInjectorTest, TopicFilterRestrictsFaults) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kFetch;
  spec.topic = "a";
  spec.probability = 1.0;
  injector.Arm(spec);

  EXPECT_FALSE(injector.Evaluate(FaultSite::kFetch, "b").has_value());
  EXPECT_TRUE(injector.Evaluate(FaultSite::kFetch, "a").has_value());
}

TEST(FaultInjectorTest, BernoulliIsDeterministicForSeed) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultSpec spec;
    spec.site = FaultSite::kPublish;
    spec.probability = 0.3;
    injector.Arm(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(
          injector.Evaluate(FaultSite::kPublish, "t").has_value());
    }
    return fired;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);

  const auto fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 200);
}

TEST(FaultInjectorTest, MaxFiresBoundsInjection) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.probability = 1.0;
  spec.max_fires = 3;
  injector.Arm(spec);

  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.Evaluate(FaultSite::kArchiveWrite, "t").has_value()) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 3);
}

TEST(FaultInjectorTest, DelayActionsCarryLatencyInsteadOfFailing) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.probability = 1.0;
  spec.delay_ns = Millis(5);
  injector.Arm(spec);

  auto action = injector.Evaluate(FaultSite::kPublish, "t");
  ASSERT_TRUE(action.has_value());
  EXPECT_FALSE(action->fails());
  EXPECT_EQ(action->delay_ns, Millis(5));
}

TEST(FaultInjectorTest, ResetDisarmsAndZeroesCounters) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.probability = 1.0;
  injector.Arm(spec);
  ASSERT_TRUE(injector.Evaluate(FaultSite::kPublish, "t").has_value());

  injector.Reset();
  EXPECT_FALSE(injector.Evaluate(FaultSite::kPublish, "t").has_value());
  EXPECT_EQ(injector.Hits(FaultSite::kPublish), 0u);
  EXPECT_EQ(injector.Fires(FaultSite::kPublish), 0u);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff = 100 * kNsPerUs;
  policy.multiplier = 2.0;
  policy.max_backoff = 10 * kNsPerMs;

  EXPECT_EQ(BackoffForAttempt(policy, 1), 100 * kNsPerUs);
  EXPECT_EQ(BackoffForAttempt(policy, 2), 200 * kNsPerUs);
  EXPECT_EQ(BackoffForAttempt(policy, 3), 400 * kNsPerUs);
  EXPECT_EQ(BackoffForAttempt(policy, 20), 10 * kNsPerMs);  // capped
}

TEST(RetryPolicyTest, JitteredBackoffStaysInBoundsAndDecorrelates) {
  RetryPolicy policy;
  policy.initial_backoff = 100 * kNsPerUs;
  policy.multiplier = 2.0;
  policy.max_backoff = 10 * kNsPerMs;

  // jitter = 0 degenerates to the deterministic exponential.
  policy.jitter = 0.0;
  EXPECT_EQ(JitteredBackoffForAttempt(policy, 3),
            BackoffForAttempt(policy, 3));

  // Full jitter: every draw lands in (0, ceiling] and the draws are not
  // all identical (lockstep reconnect is what jitter exists to break).
  policy.jitter = 1.0;
  bool varied = false;
  TimeNs first = 0;
  for (int i = 0; i < 64; ++i) {
    const TimeNs w = JitteredBackoffForAttempt(policy, 2);
    EXPECT_GE(w, 1);
    EXPECT_LE(w, BackoffForAttempt(policy, 2));
    if (i == 0) first = w;
    if (w != first) varied = true;
  }
  EXPECT_TRUE(varied);

  // Half jitter keeps the floor at half the ceiling.
  policy.jitter = 0.5;
  for (int i = 0; i < 16; ++i) {
    const TimeNs w = JitteredBackoffForAttempt(policy, 1);
    EXPECT_GE(w, BackoffForAttempt(policy, 1) / 2);
    EXPECT_LE(w, BackoffForAttempt(policy, 1));
  }
}

TEST(RetryPolicyTest, RetryableErrorClassification) {
  EXPECT_TRUE(RetryableError(ErrorCode::kUnavailable));
  EXPECT_TRUE(RetryableError(ErrorCode::kIoError));
  EXPECT_TRUE(RetryableError(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(RetryableError(ErrorCode::kNotFound));
  EXPECT_FALSE(RetryableError(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(RetryableError(ErrorCode::kOk));
}

TEST(BrokerFaultTest, InjectedDropSurfacesAsUnavailable) {
  GlobalTelemetry().Reset();
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.probability = 1.0;
  spec.max_fires = 1;
  injector.Arm(spec);
  broker.AttachFaultInjector(&injector);

  auto dropped = broker.Publish(handle, kLocalNode, 1,
                                Sample{1, 1.0, Provenance::kMeasured});
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(GlobalTelemetry().publish_drops.Value(), 1u);
  EXPECT_EQ(handle.stream()->Size(), 0u);

  // Budget exhausted: the next publish goes through.
  EXPECT_TRUE(broker
                  .Publish(handle, kLocalNode, 2,
                           Sample{2, 2.0, Provenance::kMeasured})
                  .ok());
  EXPECT_EQ(handle.stream()->Size(), 1u);
}

TEST(BrokerFaultTest, PublishWithRetryRecoversFromTransientDrop) {
  GlobalTelemetry().Reset();
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.fire_on_hits = {0};  // first attempt drops, retry succeeds
  injector.Arm(spec);
  broker.AttachFaultInjector(&injector);

  auto published = broker.PublishWithRetry(
      handle, kLocalNode, 1, Sample{1, 1.0, Provenance::kMeasured});
  ASSERT_TRUE(published.ok());
  EXPECT_GE(GlobalTelemetry().publish_retries.Value(), 1u);
  EXPECT_EQ(GlobalTelemetry().publish_failures.Value(), 0u);
  // Exactly one entry: the dropped attempt was not double-applied.
  EXPECT_EQ(handle.stream()->Size(), 1u);
}

TEST(BrokerFaultTest, PublishWithRetryExhaustsAndSurfacesFailure) {
  GlobalTelemetry().Reset();
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.probability = 1.0;
  injector.Arm(spec);
  broker.AttachFaultInjector(&injector);

  RetryPolicy policy;
  policy.max_attempts = 4;
  auto published = broker.PublishWithRetry(
      handle, kLocalNode, 1, Sample{1, 1.0, Provenance::kMeasured}, policy);
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(injector.Hits(FaultSite::kPublish), 4u);  // every attempt tried
  EXPECT_EQ(GlobalTelemetry().publish_failures.Value(), 1u);
  EXPECT_EQ(handle.stream()->Size(), 0u);
}

TEST(BrokerFaultTest, PublishRetryChargesBackoffAndHonorsDeadline) {
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kPublish;
  spec.probability = 1.0;
  injector.Arm(spec);
  broker.AttachFaultInjector(&injector);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 100 * kNsPerUs;
  policy.deadline = 150 * kNsPerUs;  // allows one backoff, not two
  policy.jitter = 0.0;  // exact charges: this test does deadline math

  const TimeNs start = clock.Now();
  auto published = broker.PublishWithRetry(
      handle, kLocalNode, 1, Sample{1, 1.0, Provenance::kMeasured}, policy);
  ASSERT_FALSE(published.ok());
  // Backoff was charged to the (virtual) clock...
  EXPECT_GE(clock.Now() - start, 100 * kNsPerUs);
  // ...and the deadline cut the attempt budget well short of 10.
  EXPECT_LT(injector.Hits(FaultSite::kPublish), 10u);
  EXPECT_GE(injector.Hits(FaultSite::kPublish), 2u);
}

TEST(BrokerFaultTest, FetchTimeoutLeavesCursorIntactForRetry) {
  GlobalTelemetry().Reset();
  SimClock clock;
  Broker broker(clock);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  auto handle = *broker.Resolve("t");
  for (TimeNs ts = 1; ts <= 3; ++ts) {
    ASSERT_TRUE(broker
                    .Publish(handle, kLocalNode, ts,
                             Sample{ts, 1.0, Provenance::kMeasured})
                    .ok());
  }

  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kFetch;
  spec.probability = 1.0;
  injector.Arm(spec);
  broker.AttachFaultInjector(&injector);

  std::uint64_t cursor = 0;
  std::vector<TelemetryStream::Entry> out;
  RetryPolicy policy;
  policy.max_attempts = 2;
  auto fetched =
      broker.FetchIntoWithRetry(handle, kLocalNode, cursor, out, SIZE_MAX,
                                policy);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(cursor, 0u) << "failed fetch must not advance the cursor";
  EXPECT_GE(GlobalTelemetry().fetch_timeouts.Value(), 1u);
  EXPECT_EQ(GlobalTelemetry().fetch_failures.Value(), 1u);

  injector.Disarm(FaultSite::kFetch);
  fetched = broker.FetchIntoWithRetry(handle, kLocalNode, cursor, out);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, 3u);  // nothing was lost while fetches failed
}

TEST(ArchiverFaultTest, WriteFailuresAreObservable) {
  GlobalTelemetry().Reset();
  TempWal archiver;
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.probability = 1.0;
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);
  archiver.set_fault_label("t");
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = 1;  // keep the test fast (real sleep)
  archiver.set_retry_policy(policy);

  Status status =
      archiver.AppendWithRetry(1, 1, Sample{1, 1.0, Provenance::kMeasured});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(archiver.Failures(), 1u);
  EXPECT_EQ(archiver.LastError().code(), ErrorCode::kIoError);
  EXPECT_EQ(archiver.Count(), 0u);
  EXPECT_EQ(GlobalTelemetry().archive_write_failures.Value(), 1u);
  EXPECT_GE(GlobalTelemetry().archive_retries.Value(), 1u);
}

TEST(ArchiverFaultTest, RetryRecoversTransientWriteFailure) {
  GlobalTelemetry().Reset();
  TempWal archiver;
  FaultInjector injector;
  FaultSpec spec;
  spec.site = FaultSite::kArchiveWrite;
  spec.fire_on_hits = {0};
  injector.Arm(spec);
  archiver.AttachFaultInjector(&injector);
  RetryPolicy policy;
  policy.initial_backoff = 1;
  archiver.set_retry_policy(policy);

  Status status =
      archiver.AppendWithRetry(1, 1, Sample{1, 1.0, Provenance::kMeasured});
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(archiver.Failures(), 0u);
  EXPECT_EQ(archiver.Count(), 1u);
  EXPECT_GE(GlobalTelemetry().archive_retries.Value(), 1u);
}

}  // namespace
}  // namespace apollo
