// Ablation — AQE micro-costs (google-benchmark).
//
// Breaks the sub-millisecond query path of Figure 12 into its parts:
// parse, plan+execute against in-memory windows, and the query-builder
// fast path that skips parsing entirely.
#include <benchmark/benchmark.h>

#include "aqe/executor.h"
#include "aqe/query_builder.h"
#include "pubsub/broker.h"

namespace apollo::aqe {
namespace {

const std::string kResourceQuery =
    "SELECT MAX(Timestamp), metric FROM t0 UNION "
    "SELECT MAX(Timestamp), metric FROM t1 UNION "
    "SELECT MAX(Timestamp), metric FROM t2";

Broker& SharedBroker() {
  static Broker* broker = [] {
    auto* b = new Broker(RealClock::Instance());
    for (int t = 0; t < 8; ++t) {
      const std::string index = std::to_string(t);
      const std::string topic = "t" + index;
      b->CreateTopic(topic);
      for (int i = 0; i < 2048; ++i) {
        b->Publish(topic, kLocalNode, Seconds(i),
                   Sample{Seconds(i), static_cast<double>(i),
                          Provenance::kMeasured});
      }
    }
    return b;
  }();
  return *broker;
}

void BM_ParseResourceQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto query = Parse(kResourceQuery);
    benchmark::DoNotOptimize(query.ok());
  }
}
BENCHMARK(BM_ParseResourceQuery);

void BM_ExecuteLatestByComplexity(benchmark::State& state) {
  Executor executor(SharedBroker());
  std::vector<std::string> tables;
  for (int i = 0; i < state.range(0); ++i) {
    const std::string index = std::to_string(i);
    tables.push_back("t" + index);
  }
  const Query query = LatestValueQuery(tables);
  for (auto _ : state) {
    auto rs = executor.ExecuteQuery(query);
    benchmark::DoNotOptimize(rs.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecuteLatestByComplexity)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParseAndExecute(benchmark::State& state) {
  Executor executor(SharedBroker());
  for (auto _ : state) {
    auto rs = executor.Execute(kResourceQuery);
    benchmark::DoNotOptimize(rs.ok());
  }
}
BENCHMARK(BM_ParseAndExecute);

void BM_RangeCount(benchmark::State& state) {
  Executor executor(SharedBroker());
  const std::string query =
      "SELECT COUNT(*) FROM t0 WHERE timestamp >= 100000000000 AND "
      "timestamp <= 900000000000";
  for (auto _ : state) {
    auto rs = executor.Execute(query);
    benchmark::DoNotOptimize(rs.ok());
  }
}
BENCHMARK(BM_RangeCount);

void BM_QueryBuilderConstruct(benchmark::State& state) {
  const std::vector<std::string> tables = {"t0", "t1", "t2"};
  for (auto _ : state) {
    Query query = LatestValueQuery(tables);
    benchmark::DoNotOptimize(query.selects.size());
  }
}
BENCHMARK(BM_QueryBuilderConstruct);

}  // namespace
}  // namespace apollo::aqe

BENCHMARK_MAIN();
