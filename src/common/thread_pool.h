// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_THREAD_POOL_H_
#define EFIND_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace efind {

/// A fixed-size worker pool executing submitted closures FIFO.
///
/// The cluster simulator uses one pool per JobRunner to execute independent
/// task *strands* concurrently (see DESIGN.md "Execution engine"): callers
/// submit a batch of closures and block in `Wait()` until the pool drains.
/// The pool itself gives no ordering guarantee between closures; callers
/// that need ordering serialize within one closure.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on some worker.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted closure has finished. The pool is
  /// reusable afterwards. Only one thread may drive Submit/Wait cycles.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // Signals workers: queue or stop.
  std::condition_variable idle_cv_;  // Signals Wait(): all work finished.
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // Queued + currently executing closures.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Resolves a requested worker-thread count: values > 0 pass through;
/// otherwise the `EFIND_THREADS` environment variable applies when its whole
/// value is a positive decimal integer, else (unset, or any other value) the
/// hardware concurrency. Never returns < 1.
int ResolveThreadCount(int requested);

}  // namespace efind

#endif  // EFIND_COMMON_THREAD_POOL_H_
