#include <gtest/gtest.h>

#include <cmath>

#include "apollo/apollo_service.h"
#include "insights/curations.h"
#include "insights/insight_fns.h"
#include "score/monitor_hook.h"

namespace apollo::insights {
namespace {

constexpr double kNanProbe = std::numeric_limits<double>::quiet_NaN();

TEST(InsightFns, MscaFromFactsMatchesDirectComputation) {
  // Drive a device, read queue depth + real bw as "facts", and check the
  // composed insight equals the direct curation.
  Device device("d", DeviceSpec::Hdd());
  device.Write(140'000'000, 0);
  device.Write(140'000'000, 0);
  const TimeNs now = Millis(500);

  const double queue = static_cast<double>(device.QueueDepth(now));
  const double real_bw = device.RealBandwidth(now);
  InsightFn fn = MscaFromFacts(device.spec().max_concurrency,
                               device.MaxBandwidth());
  EXPECT_NEAR(fn({queue, real_bw}, now), Msca(device, now), 1e-12);
}

TEST(InsightFns, MscaFromFactsEdgeCases) {
  InsightFn fn = MscaFromFacts(4, 1e9);
  EXPECT_TRUE(std::isnan(fn({1.0}, 0)));            // missing upstream
  EXPECT_TRUE(std::isnan(fn({kNanProbe, 1.0}, 0)));  // upstream not ready
  InsightFn degenerate = MscaFromFacts(0, 0);
  EXPECT_DOUBLE_EQ(degenerate({2.0, 1.0}, 0), 0.0);
}

TEST(InsightFns, InterferenceFromFactsClamped) {
  InsightFn fn = InterferenceFromFacts(100.0);
  EXPECT_DOUBLE_EQ(fn({50.0}, 0), 0.5);
  EXPECT_DOUBLE_EQ(fn({500.0}, 0), 1.0);  // clamped
  EXPECT_TRUE(std::isnan(fn({kNanProbe}, 0)));
}

TEST(InsightFns, HealthAndFaultToleranceFromFacts) {
  InsightFn health = HealthFromFacts(1000.0);
  EXPECT_DOUBLE_EQ(health({100.0}, 0), 0.9);
  InsightFn ft = FaultToleranceFromFacts(1000.0, 3);
  EXPECT_DOUBLE_EQ(ft({100.0}, 0), 2.7);
  InsightFn no_blocks = HealthFromFacts(0.0);
  EXPECT_DOUBLE_EQ(no_blocks({5.0}, 0), 1.0);
}

TEST(InsightFns, EnergyPerTransferFromFacts) {
  InsightFn fn = EnergyPerTransferFromFacts();
  EXPECT_DOUBLE_EQ(fn({80.0, 10.0}, 0), 8.0);
  EXPECT_DOUBLE_EQ(fn({80.0, 0.0}, 0), 80.0);  // max(transfers, 1)
  EXPECT_TRUE(std::isnan(fn({80.0}, 0)));
}

TEST(InsightFns, TierRemainingFraction) {
  InsightFn fn = TierRemainingFractionFromFacts(1000.0);
  EXPECT_DOUBLE_EQ(fn({200.0, 300.0}, 0), 0.5);
  EXPECT_DOUBLE_EQ(TierRemainingFractionFromFacts(0.0)({1.0}, 0), 0.0);
}

TEST(InsightFns, WeightedMean) {
  InsightFn fn = WeightedMeanInsight({1.0, 3.0});
  EXPECT_DOUBLE_EQ(fn({10.0, 20.0}, 0), (10.0 + 60.0) / 4.0);
  EXPECT_TRUE(std::isnan(fn({10.0}, 0)));  // weight count mismatch
  EXPECT_TRUE(std::isnan(WeightedMeanInsight({0.0})({5.0}, 0)));
}

TEST(InsightFns, RangeAsImbalanceIndicator) {
  InsightFn fn = RangeInsight();
  EXPECT_DOUBLE_EQ(fn({3.0, 9.0, 5.0}, 0), 6.0);
  EXPECT_DOUBLE_EQ(fn({4.0}, 0), 0.0);
  EXPECT_TRUE(std::isnan(fn({}, 0)));
}

// Full pipeline: queue-depth + bandwidth facts feeding an MSCA insight
// vertex inside a running service.
TEST(InsightFns, MscaDeployedAsScoReInsight) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);

  Device device("d", DeviceSpec::Hdd());

  FactDeployment queue_deploy;
  queue_deploy.topic = "d.queue";
  queue_deploy.publish_only_on_change = false;
  ASSERT_TRUE(
      apollo.DeployFact(QueueDepthHook(device, 0), queue_deploy).ok());
  FactDeployment bw_deploy;
  bw_deploy.topic = "d.bw";
  bw_deploy.publish_only_on_change = false;
  ASSERT_TRUE(
      apollo.DeployFact(RealBandwidthHook(device, 0), bw_deploy).ok());

  InsightVertexConfig insight;
  insight.topic = "d.msca";
  insight.upstream = {"d.queue", "d.bw"};
  insight.publish_only_on_change = false;
  ASSERT_TRUE(apollo
                  .DeployInsight(insight,
                                 MscaFromFacts(
                                     device.spec().max_concurrency,
                                     device.MaxBandwidth()))
                  .ok());

  // Queue up work so MSCA is non-zero, then let monitoring observe it.
  apollo.RunFor(Seconds(1));
  const TimeNs now = apollo.clock().Now();
  device.Write(140'000'000, now + Seconds(1));
  device.Write(140'000'000, now + Seconds(1));
  apollo.RunFor(Seconds(2));

  auto msca = apollo.LatestValue("d.msca");
  ASSERT_TRUE(msca.ok());
  EXPECT_GT(*msca, 0.0);
  EXPECT_LT(*msca, 1.0);
}

}  // namespace
}  // namespace apollo::insights
