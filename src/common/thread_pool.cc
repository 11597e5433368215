#include "common/thread_pool.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace efind {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EFIND_THREADS")) {
    // The whole value must be a positive decimal ("4x" and "1e3" are not).
    const char* end = env + std::strlen(env);
    int n = 0;
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec == std::errc() && ptr == end && n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace efind
