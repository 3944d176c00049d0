#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.h"
#include "concurrent/spsc_queue.h"

namespace apollo {
namespace {

// --- SPSC ---

TEST(SpscQueue, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueue, CapacityRoundedToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.Capacity(), 8u);
}

TEST(SpscQueue, FullRejectsPush) {
  SpscQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.TryPop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(SpscQueue, SizeApprox) {
  SpscQueue<int> q(16);
  EXPECT_TRUE(q.EmptyApprox());
  q.TryPush(1);
  q.TryPush(2);
  EXPECT_EQ(q.SizeApprox(), 2u);
}

TEST(SpscQueue, CrossThreadOrderPreserved) {
  SpscQueue<int> q(1024);
  constexpr int kCount = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kCount) {
    auto v = q.TryPop();
    if (v.has_value()) {
      EXPECT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscQueue, MoveOnlyPayload) {
  SpscQueue<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(7)));
  auto v = q.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

// --- MPMC ---

TEST(MpmcQueue, PushPopSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(10));
  EXPECT_TRUE(q.TryPush(20));
  EXPECT_EQ(q.TryPop().value(), 10);
  EXPECT_EQ(q.TryPop().value(), 20);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueue, FullRejectsPush) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(MpmcQueue, ManyProducersManyConsumersConserveSum) {
  MpmcQueue<int> q(4096);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 50000;

  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!q.TryPush(value)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed_count.load() < kProducers * kPerProducer) {
        auto v = q.TryPop();
        if (v.has_value()) {
          consumed_sum += *v;
          ++consumed_count;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueue, SizeApproxTracks) {
  MpmcQueue<int> q(64);
  for (int i = 0; i < 10; ++i) q.TryPush(i);
  EXPECT_EQ(q.SizeApprox(), 10u);
  for (int i = 0; i < 4; ++i) q.TryPop();
  EXPECT_EQ(q.SizeApprox(), 6u);
}

}  // namespace
}  // namespace apollo
