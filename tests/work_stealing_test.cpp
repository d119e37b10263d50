// Unit tests for the per-worker deques behind the pooled scheduler: LIFO
// local pop vs FIFO steal order, hint routing to the preferred queue, and
// no lost or duplicated items under concurrent enqueue + steal.  Parking
// lives in the scheduler host (tests/scheduler_test.cpp).
#include "runtime/work_stealing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ss::runtime {
namespace {

TEST(WorkStealing, LocalPopIsLifo) {
  WorkStealingQueues queues(2);
  queues.push(1, 0);
  queues.push(2, 0);
  queues.push(3, 0);
  std::size_t out = 0;
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(out, 3u);  // newest first: the hot-cache end
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(queues.try_acquire(0, out));
}

TEST(WorkStealing, StealIsFifo) {
  WorkStealingQueues queues(2);
  queues.push(1, 0);
  queues.push(2, 0);
  queues.push(3, 0);
  std::size_t out = 0;
  ASSERT_TRUE(queues.try_acquire(1, out));  // worker 1 owns nothing: steals
  EXPECT_EQ(out, 1u);  // oldest first: the cold end, opposite the owner
  ASSERT_TRUE(queues.try_acquire(1, out));
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(queues.try_acquire(1, out));
  EXPECT_EQ(out, 3u);
}

TEST(WorkStealing, LocalQueueDrainsBeforeStealing) {
  WorkStealingQueues queues(2);
  queues.push(10, 0);
  queues.push(20, 1);
  std::size_t out = 0;
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(out, 10u);  // own queue first, even though 20 arrived later
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(out, 20u);  // then the steal
  EXPECT_EQ(queues.pending(), 0u);
}

TEST(WorkStealing, PreferredIndexWrapsAroundQueueCount) {
  WorkStealingQueues queues(3);
  queues.push(7, 5);  // 5 % 3 == 2
  std::size_t out = 0;
  ASSERT_TRUE(queues.try_acquire(2, out));
  EXPECT_EQ(out, 7u);
}

TEST(WorkStealing, PendingTracksPushesAndAcquires) {
  WorkStealingQueues queues(2);
  EXPECT_EQ(queues.pending(), 0u);
  queues.push(1, 0);
  queues.push(2, 1);
  EXPECT_EQ(queues.pending(), 2u);
  std::size_t out = 0;
  ASSERT_TRUE(queues.try_acquire(0, out));
  EXPECT_EQ(queues.pending(), 1u);
}

TEST(WorkStealing, NoItemLostOrDuplicatedUnderConcurrentEnqueueAndSteal) {
  // Producers push distinct ids spread across all queues while consumer
  // threads race local pops against steals: every id must surface exactly
  // once.  This is the invariant the scheduler's actor claim relies on.
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 5000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;
  WorkStealingQueues queues(kConsumers);

  std::atomic<std::size_t> taken{0};
  std::vector<std::atomic<int>> seen(kTotal);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::size_t item = 0;
      while (taken.load(std::memory_order_acquire) < kTotal) {
        if (queues.try_acquire(c, item)) {
          seen[item].fetch_add(1, std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t id = p * kPerProducer + i;
        queues.push(id, id);  // spread hints across every queue
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
  EXPECT_EQ(queues.pending(), 0u);
}

}  // namespace
}  // namespace ss::runtime
