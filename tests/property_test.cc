// Cross-module property tests: randomized sweeps over invariants that must
// hold for any input in the domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "aqe/executor.h"
#include "coldtier/block_format.h"
#include "cluster/device.h"
#include "common/rng.h"
#include "delphi/predictor.h"
#include "pubsub/stream.h"
#include "temp_wal.h"
#include "timeseries/generators.h"
#include "timeseries/stats.h"

namespace apollo {
namespace {

// --- Stream invariants under random workloads ---

class StreamPropertyTest : public testing::TestWithParam<std::size_t> {};

TEST_P(StreamPropertyTest, WindowNeverExceedsCapacityAndIdsMonotone) {
  const std::size_t capacity = GetParam();
  TempWal archiver;
  TelemetryStream stream(capacity, &archiver);
  Rng rng(capacity * 7919);
  std::uint64_t appended = 0;
  for (int i = 0; i < 2000; ++i) {
    stream.Append(Seconds(i), Sample{Seconds(i), rng.NextDouble(),
                                     Provenance::kMeasured});
    ++appended;
    ASSERT_LE(stream.Size(), capacity);
  }
  EXPECT_EQ(stream.NextId(), appended);
  // Conservation: window + archive = everything appended.
  EXPECT_EQ(stream.Size() + archiver.Count(), appended);

  // Ids strictly increasing across the retained window.
  std::uint64_t cursor = 0;
  auto entries = stream.Read(cursor);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].id, entries[i - 1].id);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StreamPropertyTest,
                         testing::Values(1, 2, 7, 64, 1000));

TEST(StreamProperty, InterleavedCursorsSeeEverythingExactlyOnce) {
  TelemetryStream stream(1 << 12);
  Rng rng(42);
  std::uint64_t cursor_a = 0, cursor_b = 0;
  std::size_t seen_a = 0, seen_b = 0;
  int appended = 0;
  for (int round = 0; round < 200; ++round) {
    const int burst = static_cast<int>(rng.NextBounded(10));
    for (int i = 0; i < burst; ++i) {
      stream.Append(appended, Sample{appended, 0.0, Provenance::kMeasured});
      ++appended;
    }
    if (rng.Bernoulli(0.7)) seen_a += stream.Read(cursor_a).size();
    if (rng.Bernoulli(0.3)) {
      seen_b += stream.Read(cursor_b, rng.NextBounded(5) + 1).size();
    }
  }
  seen_a += stream.Read(cursor_a).size();
  seen_b += stream.Read(cursor_b).size();
  EXPECT_EQ(seen_a, static_cast<std::size_t>(appended));
  EXPECT_EQ(seen_b, static_cast<std::size_t>(appended));
}

// --- Device conservation laws ---

class DevicePropertyTest : public testing::TestWithParam<DeviceType> {};

TEST_P(DevicePropertyTest, CapacityConservedUnderRandomOps) {
  Device device("d", DeviceSpec::OfType(GetParam()));
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 5);
  std::uint64_t expected_used = 0;
  TimeNs now = 0;
  for (int op = 0; op < 3000; ++op) {
    now += static_cast<TimeNs>(rng.NextBounded(kNsPerSec));
    const std::uint64_t bytes = (1 + rng.NextBounded(4096)) * 1024;
    switch (rng.NextBounded(4)) {
      case 0: {
        auto result = device.Write(bytes, now);
        if (result.ok()) {
          expected_used += bytes;
          EXPECT_GE(result->end, result->start);
          EXPECT_GE(result->start, now);
        }
        break;
      }
      case 1:
        device.Read(bytes, now);
        break;
      case 2: {
        const std::uint64_t take = std::min(bytes, expected_used);
        if (take > 0 && device.Free(take).ok()) expected_used -= take;
        break;
      }
      case 3: {
        auto result = device.Reserve(bytes);
        if (result.ok()) expected_used += bytes;
        break;
      }
    }
    ASSERT_EQ(device.UsedBytes(), expected_used);
    ASSERT_EQ(device.UsedBytes() + device.RemainingBytes(),
              device.CapacityBytes());
    ASSERT_GE(device.QueueDepth(now), 0);
    ASSERT_GE(device.RealBandwidth(now), 0.0);
  }
}

TEST_P(DevicePropertyTest, CompletionTimesMonotonePerDevice) {
  Device device("d", DeviceSpec::OfType(GetParam()));
  Rng rng(99);
  TimeNs last_end = 0;
  TimeNs now = 0;
  for (int op = 0; op < 500; ++op) {
    now += static_cast<TimeNs>(rng.NextBounded(Millis(10)));
    auto result = device.Read((1 + rng.NextBounded(100)) << 10, now);
    ASSERT_TRUE(result.ok());
    // A device services requests in order: completions never go backward.
    EXPECT_GE(result->end, last_end);
    last_end = result->end;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DevicePropertyTest,
                         testing::Values(DeviceType::kRam, DeviceType::kNvme,
                                         DeviceType::kSsd, DeviceType::kHdd),
                         [](const testing::TestParamInfo<DeviceType>& info) {
                           return DeviceTypeName(info.param);
                         });

// --- AQE: aggregates agree with directly computed values ---

TEST(AqeProperty, AggregatesMatchGroundTruthOnRandomTables) {
  Broker broker(RealClock::Instance());
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string index = std::to_string(trial);
    const std::string table = "t" + index;
    broker.CreateTopic(table);
    const int rows = 1 + static_cast<int>(rng.NextBounded(200));
    std::vector<double> values;
    for (int i = 0; i < rows; ++i) {
      const double v = rng.Uniform(-100, 100);
      values.push_back(v);
      broker.Publish(table, kLocalNode, Seconds(i),
                     Sample{Seconds(i), v, Provenance::kMeasured});
    }
    aqe::Executor executor(broker);
    auto rs = executor.Execute(
        "SELECT MAX(metric), MIN(metric), AVG(metric), SUM(metric), "
        "COUNT(*), LAST(metric) FROM " +
        table);
    ASSERT_TRUE(rs.ok());
    const auto& row = rs->rows[0].values;
    EXPECT_DOUBLE_EQ(row[0], *std::max_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(row[1], *std::min_element(values.begin(), values.end()));
    EXPECT_NEAR(row[2], Mean(values), 1e-9);
    double sum = 0;
    for (double v : values) sum += v;
    EXPECT_NEAR(row[3], sum, 1e-9);
    EXPECT_DOUBLE_EQ(row[4], static_cast<double>(rows));
    EXPECT_DOUBLE_EQ(row[5], values.back());
  }
}

TEST(AqeProperty, TimestampRangePartitionIsExhaustive) {
  // COUNT over [0, T] == COUNT over [0, m] + COUNT over (m, T] for any m.
  Broker broker(RealClock::Instance());
  broker.CreateTopic("part");
  Rng rng(77);
  const int rows = 500;
  for (int i = 0; i < rows; ++i) {
    broker.Publish("part", kLocalNode, Seconds(i),
                   Sample{Seconds(i), rng.NextDouble(),
                          Provenance::kMeasured});
  }
  aqe::Executor executor(broker);
  for (int trial = 0; trial < 10; ++trial) {
    const long long mid =
        static_cast<long long>(rng.NextBounded(rows)) * 1'000'000'000LL;
    auto lower = executor.Execute(
        "SELECT COUNT(*) FROM part WHERE timestamp <= " +
        std::to_string(mid));
    auto upper = executor.Execute(
        "SELECT COUNT(*) FROM part WHERE timestamp > " +
        std::to_string(mid));
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(upper.ok());
    EXPECT_DOUBLE_EQ(lower->rows[0].values[0] + upper->rows[0].values[0],
                     static_cast<double>(rows));
  }
}

// --- Delphi predictor invariants ---

TEST(DelphiProperty, PredictionsFiniteOnAllFeatureArchetypes) {
  delphi::DelphiConfig config;
  config.feature_config.train_length = 512;
  config.feature_config.epochs = 8;
  config.combiner_epochs = 8;
  config.composite_length = 512;
  delphi::DelphiModel model = delphi::DelphiModel::Train(config);

  for (TsFeature feature : AllTsFeatures()) {
    GeneratorConfig gen;
    gen.length = 128;
    gen.seed = 1000 + static_cast<std::uint64_t>(feature);
    const Series series = GenerateFeature(feature, gen);
    delphi::StreamingPredictor predictor(model);
    for (double v : series) {
      predictor.Observe(v * 1e9);  // arbitrary units
      auto pred = predictor.PredictNext();
      if (pred.has_value()) {
        EXPECT_TRUE(std::isfinite(*pred)) << TsFeatureName(feature);
      }
    }
  }
}

TEST(DelphiProperty, FlatHistoryPredictsNoChangeExactly) {
  delphi::DelphiConfig config;
  config.feature_config.train_length = 256;
  config.feature_config.epochs = 5;
  config.combiner_epochs = 5;
  config.composite_length = 256;
  delphi::DelphiModel model = delphi::DelphiModel::Train(config);
  delphi::StreamingPredictor predictor(model);
  for (int i = 0; i < 10; ++i) predictor.Observe(123.456);
  // With bias correction, a constant window must predict the constant.
  auto pred = predictor.PredictNext();
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(*pred, 123.456, 1e-9);
}

// --- Stats identities ---

TEST(StatsProperty, RmseDominatesMaeAndR2Consistency) {
  Rng rng(9001);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 10 + static_cast<int>(rng.NextBounded(100));
    std::vector<double> truth, pred;
    for (int i = 0; i < n; ++i) {
      truth.push_back(rng.Gaussian(0, 3));
      pred.push_back(truth.back() + rng.Gaussian(0, 1));
    }
    const double mae = MeanAbsoluteError(truth, pred);
    const double rmse = RootMeanSquaredError(truth, pred);
    EXPECT_GE(rmse + 1e-12, mae);               // RMSE >= MAE always
    EXPECT_LE(RSquared(truth, pred), 1.0);      // R2 upper bound
    EXPECT_GE(RSquared(truth, truth), 1.0 - 1e-12);
  }
}

// --- Cold-block codec invariants ---
//
// Random streams drawn from adversarial series families must round-trip
// bit-exactly through the delta-of-delta timestamp codec, the XOR value
// codec (including NaN payloads, infinities, denormals), and the RLE
// provenance codec — and the zone map computed by the encoder must be
// conservative for every row.

namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// One random series from a named family. Ids are always strictly
// increasing with random gaps; timestamps are non-decreasing-ish but may
// jitter backwards (the codec must not assume monotonic time).
coldtier::BlockColumns RandomSeries(Rng& rng, int family, std::size_t n) {
  coldtier::BlockColumns rows;
  std::uint64_t id = 1 + rng.NextBounded(1000);
  TimeNs ts = static_cast<TimeNs>(rng.NextBounded(1u << 30));
  double walk = rng.Uniform(-100, 100);
  const double constant = rng.Uniform(-1e9, 1e9);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t row_id = id;
    id += 1 + rng.NextBounded(7);
    double value = 0.0;
    switch (family) {
      case 0:  // constant value, fixed cadence — the best case
        ts += 1000000;
        value = constant;
        break;
      case 1:  // monotonic ramp, fixed cadence
        ts += 1000000;
        value = static_cast<double>(i) * 0.1;
        break;
      case 2:  // adversarial jitter: random timestamps, random values
        ts += static_cast<TimeNs>(rng.UniformInt(-5000, 500000));
        value = rng.Uniform(-1e12, 1e12);
        break;
      case 3:  // special values: NaN payloads, infinities, denormals
        ts += static_cast<TimeNs>(rng.NextBounded(1u << 20));
        switch (rng.NextBounded(5)) {
          case 0: value = std::nan("0x5ca1e"); break;
          case 1: value = std::numeric_limits<double>::infinity(); break;
          case 2: value = -std::numeric_limits<double>::infinity(); break;
          case 3: value = std::numeric_limits<double>::denorm_min(); break;
          default: value = -0.0; break;
        }
        break;
      default:  // random walk with occasional large jumps
        ts += static_cast<TimeNs>(rng.NextBounded(1u << 22));
        walk += rng.Bernoulli(0.05) ? rng.Uniform(-1e9, 1e9)
                                    : rng.Gaussian(0, 1);
        value = walk;
        break;
    }
    const std::int64_t ts_offset =
        rng.Bernoulli(0.05)
            ? -static_cast<std::int64_t>(rng.NextBounded(1u << 16))
            : 0;
    const Provenance provenance =
        rng.Bernoulli(0.3) ? Provenance::kPredicted : Provenance::kMeasured;
    rows.Push(row_id, Sample{ts, value, provenance}, ts_offset);
  }
  return rows;
}

}  // anonymous helpers for cold-block properties

TEST(ColdBlockProperty, RandomStreamsRoundTripBitExactly) {
  Rng rng(0xB10CB10Cu);
  for (int trial = 0; trial < 60; ++trial) {
    const int family = trial % 5;
    const std::size_t n = 1 + rng.NextBounded(300);
    const auto rows = RandomSeries(rng, family, n);
    std::vector<std::uint8_t> image;
    ASSERT_TRUE(coldtier::EncodeBlock(rows, image));
    coldtier::DecodedBlock decoded;
    ASSERT_TRUE(coldtier::DecodeBlock(image.data(), image.size(), &decoded))
        << "family " << family << " n=" << n;
    const coldtier::BlockColumns& got = decoded.columns;
    ASSERT_EQ(got.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(got.ids[i], rows.ids[i]);
      EXPECT_EQ(got.samples.ts[i], rows.samples.ts[i]);
      EXPECT_EQ(got.ts_offsets[i], rows.ts_offsets[i]);
      // Bit-pattern equality: NaN payloads and -0.0 must survive intact.
      EXPECT_EQ(Bits(got.samples.values[i]), Bits(rows.samples.values[i]))
          << "family " << family << " row " << i;
      EXPECT_EQ(got.samples.provenance[i], rows.samples.provenance[i]);
    }
  }
}

TEST(ColdBlockProperty, ZoneMapsAreAlwaysConservative) {
  Rng rng(0x20EEFu);
  for (int trial = 0; trial < 60; ++trial) {
    const int family = rng.NextBounded(5);
    const std::size_t n = 1 + rng.NextBounded(200);
    const auto rows = RandomSeries(rng, static_cast<int>(family), n);
    const coldtier::ZoneMap zone = coldtier::ComputeZoneMap(rows);
    EXPECT_EQ(zone.first_id, rows.ids.front());
    EXPECT_EQ(zone.last_id, rows.ids.back());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // Every row's timestamp inside the zone bounds: a pruned block can
      // never have held a row the query wanted.
      const Sample row = rows.samples.View(0, rows.size()).At(i);
      EXPECT_GE(row.timestamp, zone.min_ts);
      EXPECT_LE(row.timestamp, zone.max_ts);
      if (!std::isnan(row.value)) {
        EXPECT_GE(row.value, zone.min_value());
        EXPECT_LE(row.value, zone.max_value());
      }
    }
  }
}

}  // namespace
}  // namespace apollo
