// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The shared bench flag family (bench/bench_util.h): every flag spelling
// parses to its field, foreign arguments reach google-benchmark untouched
// and in order, the `<figure>/config` echo is pinned byte for byte,
// malformed or out-of-range values exit with code 2, and README.md's flag
// rows name exactly the knob table's flags.

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace efind {
namespace bench {
namespace {

/// A mutable argv built from strings, as `main` would receive it.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "bench");
    for (std::string& s : args_) ptrs_.push_back(s.data());
    ptrs_.push_back(nullptr);
    argc_ = static_cast<int>(args_.size());
  }
  int* argc() { return &argc_; }
  char** argv() { return ptrs_.data(); }
  /// The arguments left after parsing, without the program name.
  std::vector<std::string> Remaining() const {
    return std::vector<std::string>(ptrs_.begin() + 1, ptrs_.begin() + argc_);
  }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
  int argc_ = 0;
};

BenchOptions Parse(Argv* args) {
  return ParseBenchOptions(args->argc(), args->argv());
}

BenchOptions Parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  return Parse(&a);
}

/// The `<figure>/config` line exactly as a bench prints it.
std::string ConfigLine(const BenchOptions& opts) {
  testing::internal::CaptureStdout();
  FigureHarness("fig").PrintJsonReport(&opts);
  return testing::internal::GetCapturedStdout();
}

TEST(BenchOptionsTest, EveryFlagParsesToItsField) {
  setenv("EFIND_THREADS", "1", /*overwrite=*/1);
  Argv args({
      "--threads=3",
      "--cache-capacity=77",
      "--benchmark_filter=x",
      "--store-page-bytes=512",
      "--store-fill=0.75",
      "--store-batch-depth=4",
      "--reuse-capacity=123456",
      "--no-reuse",
      "positional",
      "--skew=0.8",
      "--salt-fanout=4",
      "--hot-key-threshold=0.1",
      "--journal-dir=journal-out",
      "--trace-out=trace.json",
      "--report=report.json",
      "--fault-task-failure-rate=0.05",
      "--fault-straggler-rate=0.1",
      "--fault-straggler-slowdown=2.5",
      "--fault-seed=99",
      "--fault-down-hosts=1",
      "--fault-down-host=3",
      "--fault-down-host=5",
      "--fault-degraded-host=2",
      "--fault-degraded-host=4",
      "--fault-degraded-factor=6",
      "--fault-speculation",
      "--fault-speculation-threshold=1.75",
      "--fault-backoff=0.1",
      "--fault-max-attempts=5",
      "--fault-failover-replicas=2",
      "--fault-latency-rate=0.02",
      "--fault-latency-factor=10",
      "--fault-flaky-rate=0.03",
      "--fault-corrupt-rate=0.01",
      "--fault-corrupt-artifact-rate=0.04",
      "--fault-integrity-refetches=3",
      "--hedge",
      "--hedge-quantile=0.9",
      "--breaker-threshold=4",
      "--breaker-open-lookups=8",
      "--benchmark_list_tests=true",
  });
  const BenchOptions opts = Parse(&args);

  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"--benchmark_filter=x", "positional",
                                      "--benchmark_list_tests=true"}));

  EXPECT_EQ(opts.threads, 3);
  EXPECT_STREQ(std::getenv("EFIND_THREADS"), "3");
  EXPECT_EQ(opts.cache_capacity, 77u);
  EXPECT_EQ(opts.store_page_bytes, 512u);
  EXPECT_EQ(opts.store_fill, 0.75);
  EXPECT_EQ(opts.reuse_capacity, 123456u);
  EXPECT_TRUE(opts.no_reuse);
  EXPECT_EQ(opts.reuse(), nullptr);
  EXPECT_EQ(opts.skew, 0.8);
  EXPECT_EQ(opts.salt_fanout, 4);
  EXPECT_EQ(opts.hot_key_threshold, 0.1);
  EXPECT_EQ(opts.journal_dir, "journal-out");
  EXPECT_EQ(opts.trace_out, "trace.json");
  EXPECT_EQ(opts.report_out, "report.json");
  EXPECT_NE(opts.obs(), nullptr);

  const ClusterConfig& c = opts.config;
  EXPECT_EQ(c.store_batch_depth, 4);
  EXPECT_EQ(c.task_failure_rate, 0.05);
  EXPECT_EQ(c.straggler_rate, 0.1);
  EXPECT_EQ(c.straggler_slowdown, 2.5);
  EXPECT_EQ(c.fault_seed, 99u);
  EXPECT_EQ(c.random_down_hosts, 1);
  ASSERT_EQ(c.host_downtimes.size(), 2u);
  EXPECT_EQ(c.host_downtimes[0].node, 3);
  EXPECT_EQ(c.host_downtimes[1].node, 5);
  EXPECT_EQ(c.degraded_hosts, (std::vector<int>{2, 4}));
  EXPECT_EQ(c.degraded_service_factor, 6.0);
  EXPECT_TRUE(c.speculative_execution);
  EXPECT_EQ(c.speculation_threshold, 1.75);
  EXPECT_EQ(c.lookup_retry_backoff_sec, 0.1);
  EXPECT_EQ(c.lookup_max_attempts, 5);
  EXPECT_EQ(c.failover_replicas, 2);
  EXPECT_EQ(c.lookup_latency_spike_rate, 0.02);
  EXPECT_EQ(c.lookup_latency_spike_factor, 10.0);
  EXPECT_EQ(c.lookup_flaky_rate, 0.03);
  EXPECT_EQ(c.lookup_corrupt_rate, 0.01);
  EXPECT_EQ(c.artifact_corrupt_rate, 0.04);
  EXPECT_EQ(c.integrity_max_refetches, 3);
  EXPECT_TRUE(c.hedged_lookups);
  EXPECT_EQ(c.hedge_quantile, 0.9);
  EXPECT_EQ(c.breaker_failure_threshold, 4);
  EXPECT_EQ(c.breaker_open_lookups, 8);

  EXPECT_EQ(
      ConfigLine(opts),
      "{\"bench\": \"fig/config\", \"threads\": \"3\", "
      "\"num_nodes\": \"12\", \"map_slots_per_node\": \"8\", "
      "\"reduce_slots_per_node\": \"4\", \"cache_capacity\": \"77\", "
      "\"reuse\": \"off\", \"reuse_capacity\": \"123456\", "
      "\"store_page_bytes\": \"512\", \"store_fill\": \"0.75\", "
      "\"journal_dir\": \"journal-out\", \"store_batch_depth\": \"4\", "
      "\"page_read_sec\": \"0.0001\", \"store_io_parallelism\": \"64\", "
      "\"skew\": \"0.8\", \"salt_fanout\": \"4\", "
      "\"hot_key_threshold\": \"0.1\", \"fault_seed\": \"99\", "
      "\"task_failure_rate\": \"0.05\", \"straggler_rate\": \"0.1\", "
      "\"straggler_slowdown\": \"2.5\", \"random_down_hosts\": \"1\", "
      "\"down_hosts\": \"3 5\", \"degraded_hosts\": \"2 4\", "
      "\"degraded_factor\": \"6\", \"speculation\": \"true\", "
      "\"speculation_threshold\": \"1.75\", \"lookup_backoff_sec\": \"0.1\", "
      "\"lookup_max_attempts\": \"5\", \"failover_replicas\": \"2\", "
      "\"latency_spike_rate\": \"0.02\", \"latency_spike_factor\": \"10\", "
      "\"flaky_rate\": \"0.03\", \"lookup_corrupt_rate\": \"0.01\", "
      "\"artifact_corrupt_rate\": \"0.04\", "
      "\"integrity_max_refetches\": \"3\", \"hedged_lookups\": \"true\", "
      "\"hedge_quantile\": \"0.9\", \"breaker_threshold\": \"4\", "
      "\"breaker_open_lookups\": \"8\"}\n");
}

TEST(BenchOptionsTest, NoFlagsEchoesTheDefaults) {
  setenv("EFIND_THREADS", "2", /*overwrite=*/1);
  Argv args({});
  const BenchOptions opts = Parse(&args);
  EXPECT_TRUE(args.Remaining().empty());
  EXPECT_EQ(opts.obs(), nullptr);
  EXPECT_EQ(
      ConfigLine(opts),
      "{\"bench\": \"fig/config\", \"threads\": \"2\", "
      "\"num_nodes\": \"12\", \"map_slots_per_node\": \"8\", "
      "\"reduce_slots_per_node\": \"4\", \"cache_capacity\": \"1024\", "
      "\"reuse\": \"on\", \"reuse_capacity\": \"67108864\", "
      "\"store_page_bytes\": \"4096\", \"store_fill\": \"1\", "
      "\"journal_dir\": \"\", \"store_batch_depth\": \"16\", "
      "\"page_read_sec\": \"0.0001\", \"store_io_parallelism\": \"64\", "
      "\"skew\": \"0\", \"salt_fanout\": \"8\", "
      "\"hot_key_threshold\": \"0.05\", \"fault_seed\": \"1\", "
      "\"task_failure_rate\": \"0\", \"straggler_rate\": \"0\", "
      "\"straggler_slowdown\": \"3\", \"random_down_hosts\": \"0\", "
      "\"down_hosts\": \"\", \"degraded_hosts\": \"\", "
      "\"degraded_factor\": \"4\", \"speculation\": \"false\", "
      "\"speculation_threshold\": \"1.5\", \"lookup_backoff_sec\": \"0.05\", "
      "\"lookup_max_attempts\": \"3\", \"failover_replicas\": \"3\", "
      "\"latency_spike_rate\": \"0\", \"latency_spike_factor\": \"8\", "
      "\"flaky_rate\": \"0\", \"lookup_corrupt_rate\": \"0\", "
      "\"artifact_corrupt_rate\": \"0\", \"integrity_max_refetches\": \"2\", "
      "\"hedged_lookups\": \"false\", \"hedge_quantile\": \"0.95\", "
      "\"breaker_threshold\": \"0\", \"breaker_open_lookups\": \"16\"}\n");
}

TEST(BenchOptionsDeathTest, OutOfRangeValuesExitWithCode2) {
  const std::vector<std::string> bad = {
      "--cache-capacity=0",
      "--store-page-bytes=63",
      "--store-page-bytes=65537",
      "--store-fill=0",
      "--store-fill=1.5",
      "--store-batch-depth=0",
      "--reuse-capacity=0",
      "--skew=-1",
      "--salt-fanout=1",
      "--hot-key-threshold=0",
      "--hot-key-threshold=1.5",
      "--fault-straggler-slowdown=0.5",
  };
  for (const std::string& flag : bad) {
    EXPECT_EXIT(Parse({flag}), testing::ExitedWithCode(2), "") << flag;
  }
}

TEST(BenchOptionsTest, LookalikeArgumentsPassThrough) {
  Argv args({"--hedge=1", "--threadsx=3", "--reportx=a", "--no-reuse-x",
             "--skew", "--fault-speculation=true"});
  const BenchOptions opts = Parse(&args);
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"--hedge=1", "--threadsx=3",
                                      "--reportx=a", "--no-reuse-x",
                                      "--skew", "--fault-speculation=true"}));
  EXPECT_FALSE(opts.config.hedged_lookups);
  EXPECT_FALSE(opts.config.speculative_execution);
  EXPECT_FALSE(opts.no_reuse);
}

TEST(BenchOptionsDeathTest, MalformedValuesExitWithCode2) {
  const std::vector<std::string> bad = {
      "--cache-capacity=1e3",
      "--fault-straggler-rate=abc",
      "--skew=xyz",
      "--fault-seed=-1",
      "--fault-down-host=x",
      "--fault-degraded-host=2.5",
      "--threads=0",
      "--threads=two",
      "--store-fill=nan",
      "--fault-backoff=inf",
      "--reuse-capacity=-5",
      "--hot-key-threshold=",
      "--breaker-threshold=4x",
  };
  for (const std::string& flag : bad) {
    EXPECT_EXIT(Parse({flag}), testing::ExitedWithCode(2), "invalid " + flag)
        << flag;
  }
}

TEST(BenchOptionsTest, KnobTableDeclaresEachFlagAndKeyOnce) {
  std::set<std::string> flags, keys;
  size_t num_flags = 0, num_keys = 0;
  for (const Knob& k : kKnobs) {
    if (k.flag != nullptr) {
      ++num_flags;
      flags.insert(k.flag);
      EXPECT_NE(k.doc, nullptr) << k.flag;
    }
    if (k.key != nullptr) {
      ++num_keys;
      keys.insert(k.key);
    }
  }
  EXPECT_EQ(num_flags, 36u);
  EXPECT_EQ(flags.size(), num_flags);
  EXPECT_EQ(num_keys, 39u);
  EXPECT_EQ(keys.size(), num_keys);
}

// README.md documents the flags in its knob tables; the backticked
// `--flag` spellings in table rows must be exactly the knob table's.
TEST(BenchOptionsTest, ReadmeFlagRowsMatchTheKnobTable) {
  std::ifstream readme(EFIND_README_PATH);
  ASSERT_TRUE(readme.good()) << EFIND_README_PATH;
  // Each "`--" followed by a lowercase letter starts a spelling, which
  // runs over lowercase letters and dashes.
  auto lower = [](char c) { return c >= 'a' && c <= 'z'; };
  std::set<std::string> documented;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("|", 0) != 0) continue;
    for (size_t tick = line.find('`'); tick != std::string::npos;
         tick = line.find('`', tick + 1)) {
      const size_t begin = tick + 1;
      if (line.compare(begin, 2, "--") != 0 || begin + 2 >= line.size() ||
          !lower(line[begin + 2])) {
        continue;
      }
      size_t end = begin + 3;
      while (end < line.size() && (lower(line[end]) || line[end] == '-')) {
        ++end;
      }
      documented.insert(line.substr(begin, end - begin));
      tick = end - 1;
    }
  }
  std::set<std::string> declared;
  for (const Knob& k : kKnobs) {
    if (k.flag != nullptr) declared.insert(k.flag);
  }
  EXPECT_EQ(documented, declared);
}

}  // namespace
}  // namespace bench
}  // namespace efind
