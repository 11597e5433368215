// Determinism and purity of the observability subsystem (DESIGN.md §8):
//
//  - the exported span stream and every metric snapshot must be
//    bit-identical at threads=1 and threads=8, under the full fault matrix
//    (re-executions, stragglers, speculation, down/degraded index hosts) —
//    the trace pipeline stages task buffers in task-index order and rebases
//    them onto the deterministic schedule, so worker interleaving must not
//    show through;
//  - attaching a session must not change the run itself (simulated seconds,
//    counters, outputs): observability is read-only.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::ToyWorld;

ClusterConfig FaultMatrixConfig() {
  ClusterConfig config;
  config.task_failure_rate = 0.08;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.host_downtimes.push_back({3});
  config.degraded_hosts.push_back(5);
  config.lookup_retry_backoff_sec = 1e-3;
  config.fault_seed = 7;
  return config;
}

// Runs the cache strategy and the adaptive runtime back to back, recording
// into `session` (may be null), and returns the last result.
EFindRunResult RunObserved(const ClusterConfig& config, int threads,
                           obs::ObsSession* session) {
  ToyWorld world(400, 60);
  const auto input = world.MakeInput(60, 30, 500);
  const IndexJobConf conf = world.MakeJoinJob(true);
  EFindOptions options;
  options.cache_capacity = 64;
  options.threads = threads;
  EFindJobRunner runner(config, options);
  runner.set_obs(session);
  runner.RunWithStrategy(conf, input, Strategy::kLookupCache);
  return runner.RunDynamic(conf, input);
}

TEST(ObsDeterminismTest, TraceAndMetricsIdenticalAcrossThreadCounts) {
  const ClusterConfig config = FaultMatrixConfig();
  obs::ObsSession serial, parallel;
  const EFindRunResult r1 = RunObserved(config, 1, &serial);
  const EFindRunResult r8 = RunObserved(config, 8, &parallel);
  EXPECT_EQ(r1.sim_seconds, r8.sim_seconds);

  ASSERT_FALSE(serial.trace().events().empty());
  EXPECT_EQ(obs::ChromeTraceJson(serial.trace(), config.num_nodes),
            obs::ChromeTraceJson(parallel.trace(), config.num_nodes));

  EXPECT_EQ(serial.metrics().CounterValues(),
            parallel.metrics().CounterValues());
  EXPECT_EQ(serial.metrics().GaugeValues(),
            parallel.metrics().GaugeValues());
  // Histogram snapshots compare through the serialized report (covers
  // bucket contents, sums, and min/max byte-for-byte).
  obs::RunReportInput a, b;
  a.name = b.name = "determinism";
  a.metrics = &serial.metrics();
  b.metrics = &parallel.metrics();
  a.trace = &serial.trace();
  b.trace = &parallel.trace();
  EXPECT_EQ(obs::RunReportJson(a), obs::RunReportJson(b));
}

TEST(ObsDeterminismTest, InstrumentationCoversTasksLookupsAndFaults) {
  const ClusterConfig config = FaultMatrixConfig();
  obs::ObsSession session;
  RunObserved(config, 4, &session);

  int map_tasks = 0, reduce_tasks = 0, lookup_batches = 0, phases = 0;
  int fault_instants = 0;
  for (const auto& e : session.trace().events()) {
    if (e.name == "map_task") ++map_tasks;
    if (e.name == "reduce_task") ++reduce_tasks;
    if (e.name == "lookup_batch" || e.name == "grouped_lookup") {
      ++lookup_batches;
    }
    if (e.name == "map_phase" || e.name == "reduce_phase") ++phases;
    if (e.name == "task_fault" || e.name == "lookup_failover" ||
        e.name == "speculation_trigger") {
      ++fault_instants;
    }
  }
  EXPECT_GT(map_tasks, 0);
  EXPECT_GT(reduce_tasks, 0);
  EXPECT_GT(lookup_batches, 0);
  EXPECT_GT(phases, 0);
  EXPECT_GT(fault_instants, 0) << "fault matrix left no trace";

  // The wiring fed the standard metrics.
  bool saw_task_hist = false, saw_lookup_hist = false;
  for (const auto& [name, h] : session.metrics().HistogramValues()) {
    if (name == "mr.map.task_duration_sec" && h.count > 0) {
      saw_task_hist = true;
    }
    if (name.find("lookup_latency_sec") != std::string::npos && h.count > 0) {
      saw_lookup_hist = true;
    }
  }
  EXPECT_TRUE(saw_task_hist);
  EXPECT_TRUE(saw_lookup_hist);
}

// Salted re-partitioning over a Zipf-1.2 stream under the fault matrix
// (DESIGN.md §12): the run itself AND the recorded trace/metric streams —
// including the skew_detected / salt_split instants the expansion emits —
// must be bit-identical across thread counts.
EFindRunResult RunSaltedObserved(const ClusterConfig& config, int threads,
                                 obs::ObsSession* session) {
  ToyWorld world(400, 60);
  const auto input = world.MakeZipfInput(60, 30, 400, /*theta=*/1.2);
  const IndexJobConf conf = world.MakeJoinJob(true);
  EFindOptions options;
  options.cache_capacity = 64;
  options.threads = threads;
  EFindJobRunner runner(config, options);
  runner.set_obs(session);
  const CollectedStats stats = runner.CollectStatistics(conf, input);
  return runner.RunWithPlan(
      conf, input, MakeUniformPlan(conf, Strategy::kSaltedRepartition),
      &stats);
}

TEST(ObsDeterminismTest, SaltedRepartitionTraceIdenticalAcrossThreadCounts) {
  const ClusterConfig config = FaultMatrixConfig();
  obs::ObsSession serial, parallel;
  const EFindRunResult r1 = RunSaltedObserved(config, 1, &serial);
  const EFindRunResult r8 = RunSaltedObserved(config, 8, &parallel);
  EXPECT_EQ(r1.sim_seconds, r8.sim_seconds);
  EXPECT_EQ(r1.counters.values(), r8.counters.values());
  ASSERT_EQ(r1.outputs.size(), r8.outputs.size());
  for (size_t i = 0; i < r1.outputs.size(); ++i) {
    EXPECT_EQ(r1.outputs[i].records, r8.outputs[i].records);
  }

  int skew_detected = 0, salt_split = 0;
  for (const auto& e : serial.trace().events()) {
    if (e.name == "skew_detected") ++skew_detected;
    if (e.name == "salt_split") ++salt_split;
  }
  EXPECT_GT(skew_detected, 0) << "salting engaged without a skew instant";
  EXPECT_GT(salt_split, 0);
  bool saw_salt_counter = false;
  for (const auto& [name, value] : serial.metrics().CounterValues()) {
    if (name == "efind.skew.salt_splits" && value > 0) {
      saw_salt_counter = true;
    }
  }
  EXPECT_TRUE(saw_salt_counter);

  EXPECT_EQ(obs::ChromeTraceJson(serial.trace(), config.num_nodes),
            obs::ChromeTraceJson(parallel.trace(), config.num_nodes));
  EXPECT_EQ(serial.metrics().CounterValues(),
            parallel.metrics().CounterValues());
}

TEST(ObsDeterminismTest, AttachingObsDoesNotChangeTheRun) {
  const ClusterConfig config = FaultMatrixConfig();
  obs::ObsSession session;
  const EFindRunResult with = RunObserved(config, 4, &session);
  const EFindRunResult without = RunObserved(config, 4, nullptr);
  EXPECT_EQ(with.sim_seconds, without.sim_seconds);
  EXPECT_EQ(with.replanned, without.replanned);
  EXPECT_EQ(with.plan.ToString(), without.plan.ToString());
  EXPECT_EQ(with.counters.values(), without.counters.values());
  ASSERT_EQ(with.outputs.size(), without.outputs.size());
  for (size_t i = 0; i < with.outputs.size(); ++i) {
    EXPECT_EQ(with.outputs[i].records, without.outputs[i].records);
  }
}

}  // namespace
}  // namespace efind
