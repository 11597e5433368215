// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Service-level resilience determinism matrix (DESIGN.md §10): every
// strategy × every service-fault scenario (latency spikes + hedging,
// transient flaky errors, payload corruption, and the full matrix with
// circuit breakers and host outages layered on) must produce output
// byte-identical to the fault-free run — the resilience layer is
// time-domain only — and must stay bit-identical between threads=1 and
// threads=8, counters and traces included. The breaker's statefulness and
// the hedge race are the interesting part: both are derived purely from
// the deterministic schedule and the seeded fault draws, never from wall
// clocks or thread interleaving.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "efind/efind_job_runner.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

enum class ResilienceScenario {
  kLatencySpikes,
  kLatencySpikesHedged,
  kFlakyErrors,
  kLookupCorruption,
  kFullMatrix,
};

const char* ToString(ResilienceScenario s) {
  switch (s) {
    case ResilienceScenario::kLatencySpikes:
      return "latency_spikes";
    case ResilienceScenario::kLatencySpikesHedged:
      return "latency_spikes_hedged";
    case ResilienceScenario::kFlakyErrors:
      return "flaky_errors";
    case ResilienceScenario::kLookupCorruption:
      return "lookup_corruption";
    case ResilienceScenario::kFullMatrix:
      return "full_matrix";
  }
  return "?";
}

ClusterConfig MakeResilienceConfig(ResilienceScenario scenario) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  switch (scenario) {
    case ResilienceScenario::kLatencySpikes:
      config.lookup_latency_spike_rate = 0.1;
      config.lookup_latency_spike_factor = 12.0;
      break;
    case ResilienceScenario::kLatencySpikesHedged:
      config.lookup_latency_spike_rate = 0.1;
      config.lookup_latency_spike_factor = 12.0;
      config.hedged_lookups = true;
      config.hedge_quantile = 0.95;
      break;
    case ResilienceScenario::kFlakyErrors:
      config.lookup_flaky_rate = 0.15;
      break;
    case ResilienceScenario::kLookupCorruption:
      config.lookup_corrupt_rate = 0.08;
      break;
    case ResilienceScenario::kFullMatrix:
      // Every service-level fault at once, breakers and hedging on, plus
      // host outages from the PR 2 model underneath.
      config.lookup_latency_spike_rate = 0.08;
      config.lookup_latency_spike_factor = 10.0;
      config.lookup_flaky_rate = 0.2;
      config.lookup_corrupt_rate = 0.05;
      config.artifact_corrupt_rate = 0.1;
      config.hedged_lookups = true;
      config.hedge_quantile = 0.9;
      config.breaker_failure_threshold = 2;
      config.breaker_open_lookups = 8;
      config.host_downtimes.push_back({3});
      config.host_downtimes.push_back({7, 0.0, 0.002});
      config.degraded_hosts.push_back(5);
      break;
  }
  const char* why = nullptr;
  EXPECT_TRUE(ValidateClusterConfig(config, &why)) << why;
  return config;
}

EFindOptions WithThreads(int threads) {
  EFindOptions o;
  o.threads = threads;
  return o;
}

using MatrixParams = std::tuple<Strategy, ResilienceScenario>;

class ResilienceDeterminismTest
    : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(ResilienceDeterminismTest, OutputIdenticalAcrossFaultsAndThreads) {
  const auto [strategy, scenario] = GetParam();
  ToyWorld world(/*num_keys=*/200);
  const auto input = world.MakeInput(24, 40, 120);
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);

  // Fault-free serial reference.
  EFindJobRunner clean(ClusterConfig{}, WithThreads(1));
  const auto reference = clean.RunWithStrategy(conf, input, strategy);
  const auto expected = Sorted(reference.CollectRecords());
  ASSERT_FALSE(expected.empty());

  const ClusterConfig faulted = MakeResilienceConfig(scenario);
  EFindJobRunner serial(faulted, WithThreads(1));
  EFindJobRunner parallel(faulted, WithThreads(8));
  const auto f1 = serial.RunWithStrategy(conf, input, strategy);
  const auto f8 = parallel.RunWithStrategy(conf, input, strategy);

  // Service faults never touch the data plane.
  EXPECT_EQ(Sorted(f1.CollectRecords()), expected);
  EXPECT_EQ(Sorted(f8.CollectRecords()), expected);

  // They only add simulated time.
  EXPECT_GE(f1.sim_seconds, reference.sim_seconds - 1e-9)
      << ToString(strategy) << " x " << ToString(scenario);

  // threads=1 ≡ threads=8, hedges / breakers / re-fetches included.
  EXPECT_EQ(f1.sim_seconds, f8.sim_seconds);
  EXPECT_EQ(f1.counters.values(), f8.counters.values());
  ASSERT_EQ(f1.outputs.size(), f8.outputs.size());
  for (size_t i = 0; i < f1.outputs.size(); ++i) {
    EXPECT_EQ(f1.outputs[i].records, f8.outputs[i].records) << "split " << i;
  }

  // Never surfaced as data: nothing in the engine increments this counter,
  // and every injected corruption must land in the detected counter.
  EXPECT_EQ(f1.counters.Get("efind.integrity.served_corrupt"), 0.0);
  EXPECT_EQ(f1.counters.Get("efind.integrity.injected"),
            f1.counters.Get("efind.integrity.detected"));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ResilienceDeterminismTest,
    ::testing::Combine(
        ::testing::Values(Strategy::kBaseline, Strategy::kLookupCache,
                          Strategy::kRepartition, Strategy::kIndexLocality),
        ::testing::Values(ResilienceScenario::kLatencySpikes,
                          ResilienceScenario::kLatencySpikesHedged,
                          ResilienceScenario::kFlakyErrors,
                          ResilienceScenario::kLookupCorruption,
                          ResilienceScenario::kFullMatrix)),
    [](const ::testing::TestParamInfo<MatrixParams>& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             ToString(std::get<1>(info.param));
    });

// Hedging must engage under spikes (wins > 0) and cut the injected tail
// excess, without changing a byte of output.
TEST(ResilienceDeterminismTest, HedgingCutsSpikeExcess) {
  ToyWorld world(/*num_keys=*/200);
  const auto input = world.MakeInput(24, 40, 120);
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);

  EFindJobRunner clean(ClusterConfig{}, WithThreads(1));
  const auto reference =
      clean.RunWithStrategy(conf, input, Strategy::kBaseline);

  const auto unhedged =
      EFindJobRunner(
          MakeResilienceConfig(ResilienceScenario::kLatencySpikes),
          WithThreads(1))
          .RunWithStrategy(conf, input, Strategy::kBaseline);
  const auto hedged =
      EFindJobRunner(
          MakeResilienceConfig(ResilienceScenario::kLatencySpikesHedged),
          WithThreads(1))
          .RunWithStrategy(conf, input, Strategy::kBaseline);

  EXPECT_EQ(Sorted(hedged.CollectRecords()),
            Sorted(reference.CollectRecords()));
  EXPECT_GT(unhedged.sim_seconds, reference.sim_seconds);
  EXPECT_LT(hedged.sim_seconds, unhedged.sim_seconds);
  EXPECT_GT(hedged.counters.Get("efind.h0.idx0.hedge_wins"), 0.0);
}

// The full matrix must actually fire every mechanism on this workload —
// otherwise the determinism assertions above are vacuous.
TEST(ResilienceDeterminismTest, FullMatrixExercisesEveryMechanism) {
  ToyWorld world(/*num_keys=*/200);
  const auto input = world.MakeInput(24, 40, 120);
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);

  const ClusterConfig faulted =
      MakeResilienceConfig(ResilienceScenario::kFullMatrix);
  const auto run = EFindJobRunner(faulted, WithThreads(1))
                       .RunWithStrategy(conf, input, Strategy::kBaseline);
  EXPECT_GT(run.counters.Get("efind.h0.idx0.hedges"), 0.0);
  EXPECT_GT(run.counters.Get("efind.h0.idx0.flaky_retries"), 0.0);
  EXPECT_GT(run.counters.Get("efind.h0.idx0.corrupt_detected"), 0.0);
  EXPECT_GT(run.counters.Get("efind.h0.idx0.breaker_transitions"), 0.0);
  EXPECT_GT(run.counters.Get("efind.h0.idx0.breaker_short_circuits"), 0.0);
}

// The adaptive runtime under the full matrix: same output, deterministic
// plan and timing across thread counts (fault-clean statistics keep the
// optimizer's view of Θ/R/T_j unchanged; only avail_excess and the
// mechanism shares move).
TEST(ResilienceDeterminismTest, DynamicSurvivesFullMatrix) {
  ToyWorld world(/*num_keys=*/200);
  const auto input = world.MakeInput(24, 40, 120);
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);

  EFindJobRunner clean(ClusterConfig{}, WithThreads(1));
  const auto expected = Sorted(clean.RunDynamic(conf, input).CollectRecords());

  const ClusterConfig faulted =
      MakeResilienceConfig(ResilienceScenario::kFullMatrix);
  EFindJobRunner serial(faulted, WithThreads(1));
  EFindJobRunner parallel(faulted, WithThreads(8));
  const auto f1 = serial.RunDynamic(conf, input);
  const auto f8 = parallel.RunDynamic(conf, input);
  EXPECT_EQ(Sorted(f1.CollectRecords()), expected);
  EXPECT_EQ(Sorted(f8.CollectRecords()), expected);
  EXPECT_EQ(f1.sim_seconds, f8.sim_seconds);
  EXPECT_EQ(f1.plan.ToString(), f8.plan.ToString());
}

// The exported trace (breaker transitions, hedge instants, integrity
// retries, injected-latency histograms included) is byte-identical across
// thread counts under the full fault matrix.
TEST(ResilienceDeterminismTest, TraceIdenticalAcrossThreadCounts) {
  ToyWorld world(/*num_keys=*/200);
  const auto input = world.MakeInput(24, 40, 120);
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);
  const ClusterConfig faulted =
      MakeResilienceConfig(ResilienceScenario::kFullMatrix);

  obs::ObsSession serial_obs, parallel_obs;
  EFindJobRunner serial(faulted, WithThreads(1));
  EFindJobRunner parallel(faulted, WithThreads(8));
  serial.set_obs(&serial_obs);
  parallel.set_obs(&parallel_obs);
  serial.RunWithStrategy(conf, input, Strategy::kBaseline);
  parallel.RunWithStrategy(conf, input, Strategy::kBaseline);

  ASSERT_FALSE(serial_obs.trace().events().empty());
  EXPECT_EQ(obs::ChromeTraceJson(serial_obs.trace(), faulted.num_nodes),
            obs::ChromeTraceJson(parallel_obs.trace(), faulted.num_nodes));
  EXPECT_EQ(serial_obs.metrics().CounterValues(),
            parallel_obs.metrics().CounterValues());
}

}  // namespace
}  // namespace efind
