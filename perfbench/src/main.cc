// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Entry point of the repository benchmark. Normally started through
// `python3 perfbench/run.py`, which builds this binary and passes
// --work-dir; see README.md for the workloads and metrics.
//
//   perfbench --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --work-dir DIR --self-test

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

bool ParseInt(const char* text, long long min, long long max, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --work-dir DIR (--self-test | --workload "
               "{log_adaptive,store_join,tpch_service} --seed N --seconds S "
               "--trace 0|1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--seed" && ParseInt(value, 0, 1LL << 62, &n)) {
      options.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds" && ParseInt(value, 1, 3600, &n)) {
      options.seconds = static_cast<int>(n);
    } else if (arg == "--trace" && ParseInt(value, 0, 1, &n)) {
      options.trace = n == 1;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty()) return Usage();
  if (self_test) return perfbench::RunSelfTest(options.work_dir);
  if (options.workload.empty()) return Usage();
  return perfbench::RunBenchmark(options);
}
