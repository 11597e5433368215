// Unit tests of the execution engine's thread pool (common/thread_pool.h).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace efind {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { ++count; });
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(3);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      pool.Submit([&count] { ++count; });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 5; ++i) {
    pool.Submit([&order, &mu, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  pool.Wait();
  // One worker drains the FIFO queue in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, DestructorJoinsWithoutWait) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { ++count; });
    }
    // No Wait(): the destructor must drain and join cleanly.
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
}

TEST(ResolveThreadCountTest, EnvironmentOverridesAuto) {
  setenv("EFIND_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  unsetenv("EFIND_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1);  // Hardware fallback, never < 1.
}

}  // namespace
}  // namespace efind
