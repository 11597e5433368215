#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "efind/stages.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "workloads/log_trace.h"

namespace efind {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

class AdaptiveTest : public ::testing::Test {
 protected:
  ClusterConfig config_;
};

// Dynamic mode on a duplication-heavy workload: the first map wave should
// trigger a re-optimization to a shuffle-based plan, the outputs of the
// reused first-wave tasks must merge correctly with the new-plan tasks, and
// the result must equal the baseline result.
TEST_F(AdaptiveTest, ReplansAndPreservesOutput) {
  ToyWorld world(100, /*value_bytes=*/300);
  // 192 splits (2 waves of 96) x 60 records over 40 keys: Theta = 288.
  auto input = world.MakeInput(192, 60, 40);
  IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);
  EFindJobRunner runner(config_);

  auto dynamic = runner.RunDynamic(conf, input);
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);

  EXPECT_TRUE(dynamic.replanned) << dynamic.plan.ToString();
  EXPECT_NE(dynamic.plan.head[0].order[0].strategy, Strategy::kBaseline);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), Sorted(base.CollectRecords()));
  // It paid the statistics wave but still beat all-baseline.
  EXPECT_GT(dynamic.stats_wave_seconds, 0.0);
  EXPECT_LT(dynamic.sim_seconds, base.sim_seconds);
}

TEST_F(AdaptiveTest, DynamicSlowerThanStaticOptimized) {
  // Paper §5.3: "Due to the overhead of the statistics collection phase,
  // dynamic is slower than the optimal performance".
  ToyWorld world(100, 300);
  auto input = world.MakeInput(192, 60, 40);
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindJobRunner runner(config_);

  CollectedStats stats = runner.CollectStatistics(conf, input);
  JobPlan plan = runner.PlanFromStats(conf, stats);
  auto optimized = runner.RunWithPlan(conf, input, plan, &stats);
  auto dynamic = runner.RunDynamic(conf, input);
  EXPECT_GE(dynamic.sim_seconds, optimized.sim_seconds * 0.99);
}

TEST_F(AdaptiveTest, NoReplanWhenBaselineIsGood) {
  ToyWorld world(5000, /*value_bytes=*/20);
  // Every key distinct (Theta = 1), small values: baseline is fine and
  // no strategy can pay for an extra job.
  std::vector<InputSplit> input(96);
  int id = 0;
  for (int s = 0; s < 96; ++s) {
    input[s].node = s % 12;
    for (int r = 0; r < 20; ++r) {
      input[s].records.push_back(
          Record("k" + std::to_string(id), "rec" + std::to_string(id)));
      ++id;
    }
  }
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindJobRunner runner(config_);
  auto dynamic = runner.RunDynamic(conf, input);
  EXPECT_FALSE(dynamic.replanned) << dynamic.plan.ToString();
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), Sorted(base.CollectRecords()));
}

TEST_F(AdaptiveTest, VarianceGateBlocksReplanOnUnstableStats) {
  ToyWorld world(100, 300);
  // Highly skewed split sizes in the first wave -> high CoV -> no replan
  // even though the workload is duplication-heavy (Algorithm 1 lines 1-3).
  std::vector<InputSplit> input(192);
  Rng rng(3);
  int id = 0;
  for (int s = 0; s < 192; ++s) {
    input[s].node = s % 12;
    const int records = (s % 7 == 0) ? 400 : 2;
    for (int r = 0; r < records; ++r) {
      input[s].records.push_back(
          Record("k" + std::to_string(rng.Uniform(40)),
                 "rec" + std::to_string(id++)));
    }
  }
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindOptions options;
  options.variance_threshold = 0.05;
  EFindJobRunner runner(config_, options);
  auto dynamic = runner.RunDynamic(conf, input);
  EXPECT_FALSE(dynamic.replanned);
}

TEST_F(AdaptiveTest, PlanChangeCostGateBlocksMarginalWins) {
  ToyWorld world(100, 300);
  auto input = world.MakeInput(192, 60, 40);
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindOptions options;
  options.plan_change_cost_sec = 1e9;  // Nothing can justify a change.
  EFindJobRunner runner(config_, options);
  auto dynamic = runner.RunDynamic(conf, input);
  EXPECT_FALSE(dynamic.replanned);
}

TEST_F(AdaptiveTest, SingleWaveInputStillWorks) {
  ToyWorld world(100);
  auto input = world.MakeInput(12, 30, 40);  // Fewer splits than slots.
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindJobRunner runner(config_);
  auto dynamic = runner.RunDynamic(conf, input);
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), Sorted(base.CollectRecords()));
}

// Reduce-phase re-optimization (Fig. 10b): a tail operator with heavy
// duplication, more reduce tasks than slots so there is a second wave.
TEST_F(AdaptiveTest, TailReplanPreservesOutput) {
  ToyWorld world(60, /*value_bytes=*/400);
  // Map side: nothing index-related (head/body clean). Reduce emits keys
  // over a small domain -> tail operator sees heavy duplication.
  std::vector<InputSplit> input(96);
  Rng rng(5);
  int id = 0;
  for (int s = 0; s < 96; ++s) {
    input[s].node = s % 12;
    for (int r = 0; r < 60; ++r) {
      input[s].records.push_back(Record(
          "k" + std::to_string(rng.Uniform(40)), "r" + std::to_string(id++)));
    }
  }
  IndexJobConf conf;
  conf.set_name("tail_adaptive");
  conf.SetReducer(std::make_shared<testing_util::CountReducer>());
  conf.set_num_reduce_tasks(96);  // 2 reduce waves on 48 slots.
  auto op = std::make_shared<testing_util::JoinOperator>();
  op->AddIndex(
      std::make_shared<KvIndexAccessor>("toy", world.store.get()));
  conf.AddTailIndexOperator(op);

  EFindOptions options;
  options.plan_change_cost_sec = 0.0;
  options.variance_threshold = 10.0;  // Few keys per task: noisy samples.
  EFindJobRunner runner(config_, options);
  auto dynamic = runner.RunDynamic(conf, input);
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), Sorted(base.CollectRecords()));
}

// A pass-through reducer with no tail operator: the re-planned run's reduce
// writes batch-form splits internally, but outputs leave the engine in
// record form on every RunDynamic exit, as they do from RunWithStrategy.
TEST_F(AdaptiveTest, PassThroughReduceOutputsLeaveInRecordForm) {
  ToyWorld world(100, 300);
  auto input = world.MakeInput(192, 60, 40);
  IndexJobConf conf = world.MakeJoinJob(true);
  conf.SetReducer(std::make_shared<GroupReducer>());
  EFindJobRunner runner(config_);
  auto dynamic = runner.RunDynamic(conf, input);
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);

  auto record_form = [](const EFindRunResult& r) {
    std::vector<Record> records;
    int batch_splits = 0;
    for (const InputSplit& s : r.outputs) {
      if (s.batch != nullptr) ++batch_splits;
      records.insert(records.end(), s.records.begin(), s.records.end());
    }
    EXPECT_EQ(batch_splits, 0);
    return records;
  };
  const std::vector<Record> dynamic_records = record_form(dynamic);
  ASSERT_EQ(dynamic_records.size(), 11520u);
  EXPECT_EQ(Sorted(dynamic_records), Sorted(record_form(base)));
  EXPECT_EQ(Sorted(dynamic_records), Sorted(dynamic.CollectRecords()));
}

// A re-planned LOG run whose new plan re-partitions: the shuffle job of the
// new plan stores its output in the DFS, and the final job's map tasks read
// it back, so the run charges that boundary into the final job, as a
// fixed-plan run charges it into its final job.
TEST_F(AdaptiveTest, ReplanIntoShuffleChargesDfsBoundary) {
  LogTraceOptions log;
  log.num_events = 20000;
  log.num_ips = 5000;
  log.num_urls = 1000;
  log.num_splits = 384;
  CloudServiceOptions service;
  service.base_latency_sec = 800e-6;
  service.extra_latency_sec = 1e-3;
  const auto splits = GenerateLogTrace(log, config_.num_nodes);
  CloudService geo = MakeGeoIpService(20, service);
  const IndexJobConf conf = MakeLogTopUrlsJob(&geo, 5);
  obs::ObsSession session;
  EFindJobRunner runner(config_);
  runner.set_obs(&session);
  const EFindRunResult run = runner.RunDynamic(conf, splits);
  ASSERT_TRUE(run.replanned);
  ASSERT_EQ(run.plan.head[0].order[0].strategy, Strategy::kRepartition);

  double final_bytes = 0.0;
  for (const auto& [name, value] : session.metrics().CounterValues()) {
    if (name == "efind.dfs_bytes.final") final_bytes = value;
  }
  EXPECT_GT(final_bytes, 0.0);
  int into_final = 0;
  for (const obs::TraceEvent& e : session.trace().events()) {
    if (e.name != "dfs_boundary") continue;
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key != "into_job" || arg.value != conf.name() + ":main") {
        continue;
      }
      ++into_final;
      EXPECT_EQ(e.duration_sec,
                config_.DfsStoreSeconds(static_cast<uint64_t>(final_bytes)) /
                    config_.num_nodes);
    }
  }
  EXPECT_EQ(into_final, 1);
}

}  // namespace
}  // namespace efind
