// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the thread pool (common/thread_pool.h).
// This is a standalone binary (no gtest) compiled together with the pool
// source and -fsanitize=thread by tests/CMakeLists.txt. The main thread
// drives Submit/Wait cycles while closures submit more closures from inside
// the pool, racing a worker-side Submit against the main thread's. TSan
// reports (data races) fail the test via its nonzero exit code.

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "common/thread_pool.h"

int main() {
  efind::ThreadPool pool(8);
  std::atomic<uint64_t> executed{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&pool, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        pool.Submit(
            [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    pool.Wait();
  }

  const uint64_t want = 50ull * 200ull * 2ull;
  if (executed.load() != want) {
    std::fprintf(stderr, "pool_tsan_smoke: executed %llu of %llu tasks\n",
                 static_cast<unsigned long long>(executed.load()),
                 static_cast<unsigned long long>(want));
    return 1;
  }
  std::fprintf(stderr, "pool_tsan_smoke: OK (%llu tasks)\n",
               static_cast<unsigned long long>(executed.load()));
  return 0;
}
