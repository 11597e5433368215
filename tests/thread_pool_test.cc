// Unit tests of the execution engine's thread pool (common/thread_pool.h).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
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

// Only a whole positive decimal is a thread count; anything else falls back
// to the hardware count, as an unset variable does. Each malformed value
// starts with a number other than that count, so a prefix parse shows.
// Resolving starts no threads.
TEST(ResolveThreadCountTest, MalformedEnvironmentFallsBackToHardware) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw > 0 ? static_cast<int>(hw_raw) : 1;
  const std::string other = std::to_string(hw + 3);
  for (const std::string& value :
       {other + "x", other + "e3", other + ".5", " " + other, other + " ",
        std::string("0"), "-" + other, std::string(""),
        std::string("99999999999999999999")}) {
    setenv("EFIND_THREADS", value.c_str(), /*overwrite=*/1);
    EXPECT_EQ(ResolveThreadCount(0), hw) << "EFIND_THREADS='" << value << "'";
  }
  setenv("EFIND_THREADS", other.c_str(), /*overwrite=*/1);
  EXPECT_EQ(ResolveThreadCount(0), hw + 3);
  EXPECT_EQ(ResolveThreadCount(2), 2);  // An explicit request still wins.
  unsetenv("EFIND_THREADS");
  EXPECT_EQ(ResolveThreadCount(0), hw);
}

}  // namespace
}  // namespace efind
