#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "apollo/apollo_service.h"
#include "cluster/device.h"
#include "score/monitor_hook.h"

namespace apollo {
namespace {

ApolloOptions SimOptions() {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  return options;
}

TEST(Subscription, DeliversNewEntriesInOrder) {
  ApolloService apollo(SimOptions());
  apollo.broker().CreateTopic("feed");

  std::vector<double> received;
  const auto id = apollo.Subscribe(
      "feed", Seconds(1),
      [&received](const std::string& topic,
                  const StreamEntry<Sample>& entry) {
        EXPECT_EQ(topic, "feed");
        received.push_back(entry.value.value);
      });
  EXPECT_EQ(apollo.SubscriptionCount(), 1u);

  for (int i = 0; i < 5; ++i) {
    apollo.broker().Publish("feed", kLocalNode, Seconds(i),
                            Sample{Seconds(i), static_cast<double>(i),
                                   Provenance::kMeasured});
  }
  apollo.RunFor(Seconds(3));
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(received[i], i);

  ASSERT_TRUE(apollo.Unsubscribe(id).ok());
  EXPECT_EQ(apollo.SubscriptionCount(), 0u);
}

TEST(Subscription, DeliveryStopsAfterUnsubscribe) {
  ApolloService apollo(SimOptions());
  apollo.broker().CreateTopic("feed");
  int delivered = 0;
  const auto id = apollo.Subscribe(
      "feed", Seconds(1),
      [&delivered](const std::string&, const StreamEntry<Sample>&) {
        ++delivered;
      });
  apollo.broker().Publish("feed", kLocalNode, 0,
                          Sample{0, 1.0, Provenance::kMeasured});
  apollo.RunFor(Seconds(2));
  const int before = delivered;
  ASSERT_TRUE(apollo.Unsubscribe(id).ok());
  apollo.broker().Publish("feed", kLocalNode, Seconds(3),
                          Sample{Seconds(3), 2.0, Provenance::kMeasured});
  apollo.RunFor(Seconds(5));
  EXPECT_EQ(delivered, before);
}

TEST(Subscription, WaitsForTopicCreation) {
  ApolloService apollo(SimOptions());
  int delivered = 0;
  apollo.Subscribe("later", Seconds(1),
                   [&delivered](const std::string&,
                                const StreamEntry<Sample>&) {
                     ++delivered;
                   });
  apollo.RunFor(Seconds(3));
  EXPECT_EQ(delivered, 0);

  apollo.broker().CreateTopic("later");
  apollo.broker().Publish("later", kLocalNode, apollo.clock().Now(),
                          Sample{apollo.clock().Now(), 9.0,
                                 Provenance::kMeasured});
  apollo.RunFor(Seconds(3));
  EXPECT_EQ(delivered, 1);
}

TEST(Subscription, UnsubscribeUnknownFails) {
  ApolloService apollo(SimOptions());
  EXPECT_FALSE(apollo.Unsubscribe(777).ok());
}

TEST(Subscription, SeesFactVertexStream) {
  ApolloService apollo(SimOptions());
  Device device("d", DeviceSpec::Nvme());
  FactDeployment deployment;
  deployment.topic = "cap";
  deployment.publish_only_on_change = false;
  ASSERT_TRUE(
      apollo.DeployFact(CapacityRemainingHook(device, 0), deployment).ok());

  int measured = 0;
  apollo.Subscribe("cap", Seconds(1),
                   [&measured](const std::string&,
                               const StreamEntry<Sample>& entry) {
                     if (entry.value.measured()) ++measured;
                   });
  apollo.RunFor(Seconds(10));
  EXPECT_GE(measured, 9);
}

TEST(Subscription, RealTimeDelivery) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  ApolloService apollo(options);
  apollo.broker().CreateTopic("rt");
  std::atomic<int> delivered{0};
  apollo.Subscribe("rt", Millis(5),
                   [&delivered](const std::string&,
                                const StreamEntry<Sample>&) {
                     ++delivered;
                   });
  apollo.Start();
  for (int i = 0; i < 3; ++i) {
    apollo.broker().Publish("rt", kLocalNode, Millis(i),
                            Sample{Millis(i), 1.0 * i,
                                   Provenance::kMeasured});
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  // Wait (bounded) for the loop thread to drain the last entries.
  for (int spin = 0; spin < 200 && delivered.load() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  apollo.Stop();
  EXPECT_EQ(delivered.load(), 3);
}

}  // namespace
}  // namespace apollo

namespace apollo {
namespace {

TEST(ArchiveOption, FileArchiveUnderArchiveDir) {
  // Fresh subdir: archivers recover any segments already present at their
  // path, so a reused directory would leak records across test runs.
  const std::string dir = testing::TempDir() + "/archive_option_filed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  options.archive_dir = dir;
  ApolloService apollo(options);

  TimeNs tick = 0;
  MonitorHook hook{"filed",
                   [&tick](TimeNs) { return static_cast<double>(tick++); },
                   0};
  FactDeployment deployment;
  deployment.topic = "filed";
  deployment.queue_capacity = 4;
  deployment.publish_only_on_change = false;
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
  apollo.RunFor(Seconds(30));

  auto rs = apollo.Query("SELECT COUNT(*) FROM filed WHERE timestamp >= 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 31.0);
  // Evicted entries landed in WAL segments under <dir>/filed.log.*.wal.
  const std::string path = dir + "/filed.log.000001.wal";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) std::fclose(f);
  std::filesystem::remove_all(dir);
}

TEST(ArchiveOption, NoneDropsEvictedEntries) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);

  TimeNs tick = 0;
  MonitorHook hook{"drop",
                   [&tick](TimeNs) { return static_cast<double>(tick++); },
                   0};
  FactDeployment deployment;
  deployment.topic = "drop";
  deployment.queue_capacity = 4;
  deployment.publish_only_on_change = false;
  deployment.archive = FactDeployment::Archive::kNone;
  ASSERT_TRUE(apollo.DeployFact(std::move(hook), deployment).ok());
  apollo.RunFor(Seconds(30));
  auto rs = apollo.Query("SELECT COUNT(*) FROM drop WHERE timestamp >= 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(rs->rows[0].values[0], 4.0);  // window only
}

}  // namespace
}  // namespace apollo

namespace apollo {
namespace {

TEST(ServiceStats, AggregatesVertexCounters) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);

  Device device("d", DeviceSpec::Nvme());
  FactDeployment constant;
  constant.topic = "const_metric";  // suppressed after the first publish
  ASSERT_TRUE(
      apollo.DeployFact(CapacityRemainingHook(device, 0), constant).ok());
  InsightVertexConfig insight;
  insight.topic = "derived";
  insight.upstream = {"const_metric"};
  ASSERT_TRUE(apollo.DeployInsight(insight, SumInsight()).ok());

  apollo.RunFor(Seconds(20));
  const auto stats = apollo.Stats();
  EXPECT_EQ(stats.fact_vertices, 1u);
  EXPECT_EQ(stats.insight_vertices, 1u);
  EXPECT_GE(stats.hook_calls, 20u);
  EXPECT_GE(stats.suppressed, 19u);
  EXPECT_GT(stats.SuppressionRatio(), 0.8);
}

TEST(ServiceStats, EmptyServiceZeroed) {
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kSimulated;
  ApolloService apollo(options);
  const auto stats = apollo.Stats();
  EXPECT_EQ(stats.fact_vertices, 0u);
  EXPECT_EQ(stats.hook_calls, 0u);
  EXPECT_DOUBLE_EQ(stats.SuppressionRatio(), 0.0);
}

}  // namespace
}  // namespace apollo
