// Determinism of the parallel execution engine: the simulated results —
// outputs (including order), simulated seconds, merged counters, and chosen
// plans — must be bit-identical for every worker-thread count (DESIGN.md
// "Execution engine"). Runs every strategy, the adaptive runtime, and the
// plain JobRunner at threads=1 vs threads=8 over the shared toy-join
// workloads.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "efind/stages.h"
#include "mapreduce/job_runner.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::ToyWorld;

void ExpectSameSplits(const std::vector<InputSplit>& a,
                      const std::vector<InputSplit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "split " << i;
    EXPECT_EQ(a[i].records, b[i].records) << "split " << i;
  }
}

void ExpectSameResult(const EFindRunResult& a, const EFindRunResult& b) {
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // Exact, not approximate.
  EXPECT_EQ(a.stats_wave_seconds, b.stats_wave_seconds);
  EXPECT_EQ(a.replanned, b.replanned);
  EXPECT_EQ(a.plan.ToString(), b.plan.ToString());
  EXPECT_EQ(a.counters.values(), b.counters.values());
  ExpectSameSplits(a.outputs, b.outputs);
}

struct RunnerPair {
  explicit RunnerPair(const ClusterConfig& config, size_t cache_capacity = 64)
      : serial_options([&] {
          EFindOptions o;
          o.cache_capacity = cache_capacity;
          o.threads = 1;
          return o;
        }()),
        parallel_options([&] {
          EFindOptions o;
          o.cache_capacity = cache_capacity;
          o.threads = 8;
          return o;
        }()),
        serial(config, serial_options),
        parallel(config, parallel_options) {}

  EFindOptions serial_options;
  EFindOptions parallel_options;
  EFindJobRunner serial;
  EFindJobRunner parallel;
};

class DeterminismTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeterminismTest, AllStrategiesMatchAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  // 30 splits on 12 nodes: several tasks per node.
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  RunnerPair pair(config);
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    auto a = pair.serial.RunWithStrategy(conf, input, s);
    auto b = pair.parallel.RunWithStrategy(conf, input, s);
    ExpectSameResult(a, b);
  }
}

TEST_P(DeterminismTest, OptimizedPathMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  RunnerPair pair(config);
  CollectedStats stats_a = pair.serial.CollectStatistics(conf, input);
  CollectedStats stats_b = pair.parallel.CollectStatistics(conf, input);
  JobPlan plan_a = pair.serial.PlanFromStats(conf, stats_a);
  JobPlan plan_b = pair.parallel.PlanFromStats(conf, stats_b);
  EXPECT_EQ(plan_a.ToString(), plan_b.ToString());
  auto a = pair.serial.RunWithPlan(conf, input, plan_a, &stats_a);
  auto b = pair.parallel.RunWithPlan(conf, input, plan_b, &stats_b);
  ExpectSameResult(a, b);
}

TEST_P(DeterminismTest, DynamicRunMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  // Enough splits for several map waves so Algorithm 1 engages.
  const auto input = world.MakeInput(200, 20, 100);

  ClusterConfig config;
  RunnerPair pair(config);
  auto a = pair.serial.RunDynamic(conf, input);
  auto b = pair.parallel.RunDynamic(conf, input);
  ExpectSameResult(a, b);
}

TEST_P(DeterminismTest, FaultModelMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  config.task_failure_rate = 0.05;
  config.straggler_rate = 0.1;
  RunnerPair pair(config);
  auto a = pair.serial.RunWithStrategy(conf, input, Strategy::kLookupCache);
  auto b = pair.parallel.RunWithStrategy(conf, input, Strategy::kLookupCache);
  ExpectSameResult(a, b);
  auto da = pair.serial.RunDynamic(conf, input);
  auto db = pair.parallel.RunDynamic(conf, input);
  ExpectSameResult(da, db);
}

// Salted re-partitioning over a Zipf-1.2 key stream with the fault matrix
// on (DESIGN.md §12): the skew detector's hot set, the salted shuffle, and
// the merged outputs must all be bit-identical across thread counts.
TEST_P(DeterminismTest, SaltedRepartitionMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeZipfInput(30, 40, 400, /*theta=*/1.2);

  ClusterConfig config;
  config.task_failure_rate = 0.08;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.host_downtimes.push_back({3});
  config.degraded_hosts.push_back(5);
  config.fault_seed = 7;
  RunnerPair pair(config);

  CollectedStats stats_a = pair.serial.CollectStatistics(conf, input);
  CollectedStats stats_b = pair.parallel.CollectStatistics(conf, input);
  ASSERT_FALSE(stats_a.head.empty());
  ASSERT_FALSE(stats_a.head[0].index.empty());
  // The detector must flag "k0" (so salting actually engages below) and
  // produce the identical hot set at both thread counts.
  ASSERT_FALSE(stats_a.head[0].index[0].hot_keys.empty());
  EXPECT_EQ(stats_a.head[0].index[0].hot_keys,
            stats_b.head[0].index[0].hot_keys);
  EXPECT_EQ(stats_a.head[0].index[0].max_key_share,
            stats_b.head[0].index[0].max_key_share);

  const JobPlan plan = MakeUniformPlan(conf, Strategy::kSaltedRepartition);
  auto a = pair.serial.RunWithPlan(conf, input, plan, &stats_a);
  auto b = pair.parallel.RunWithPlan(conf, input, plan, &stats_b);
  ExpectSameResult(a, b);
}

// 30 splits on 2 nodes, fewer nodes than threads: the phases without
// per-node state run their tasks over all 8 threads, while lookup stages
// with node caches or live breakers keep each node's tasks on one strand.
// Every strategy, the dynamic run, and both again under the fault matrix
// with breakers on.
TEST_P(DeterminismTest, FewerNodesThanThreadsMatchAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeInput(30, 40, 400, /*seed=*/1,
                                     /*num_nodes=*/2);

  ClusterConfig faulted;
  faulted.task_failure_rate = 0.05;
  faulted.straggler_rate = 0.1;
  faulted.lookup_latency_spike_rate = 0.08;
  faulted.lookup_flaky_rate = 0.2;
  faulted.lookup_corrupt_rate = 0.05;
  faulted.hedged_lookups = true;
  faulted.breaker_failure_threshold = 2;
  faulted.breaker_open_lookups = 8;
  faulted.host_downtimes.push_back({3});
  faulted.host_downtimes.push_back({7, 0.0, 0.002});
  faulted.degraded_hosts.push_back(5);
  double breaker_transitions = 0.0;
  for (const ClusterConfig& config : {ClusterConfig{}, faulted}) {
    RunnerPair pair(config);
    for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                       Strategy::kRepartition, Strategy::kIndexLocality}) {
      auto a = pair.serial.RunWithStrategy(conf, input, s);
      auto b = pair.parallel.RunWithStrategy(conf, input, s);
      ExpectSameResult(a, b);
      breaker_transitions +=
          a.counters.Get("efind.h0.idx0.breaker_transitions");
    }
    auto a = pair.serial.RunDynamic(conf, input);
    auto b = pair.parallel.RunDynamic(conf, input);
    ExpectSameResult(a, b);
  }
  EXPECT_GT(breaker_transitions, 0.0);  // The breakers were live.
}

INSTANTIATE_TEST_SUITE_P(MapOnlyAndReduce, DeterminismTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithReduce" : "MapOnly";
                         });

/// Every statistic of every operator, doubles as exact hex floats.
std::string StatsHex(const CollectedStats& stats) {
  std::string out;
  auto add = [&out](const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%a", name, v);
    out += buf;
  };
  for (OperatorPosition pos : kOperatorPositions) {
    for (const OperatorStats& st : stats.at(pos)) {
      out += "op";
      add("n1", st.n1);
      add("s1", st.s1);
      add("spre", st.spre);
      add("spost", st.spost);
      add("smap", st.smap);
      add("tasks", static_cast<double>(st.tasks_sampled));
      add("max_cov", st.max_cov);
      add("valid", st.valid);
      for (const IndexStats& is : st.index) {
        out += "\n idx";
        add("nik", is.nik);
        add("sik", is.sik);
        add("siv", is.siv);
        add("tj", is.tj);
        add("theta", is.theta);
        add("R", is.miss_ratio);
        add("repart", is.repartitionable);
        add("max_key_share", is.max_key_share);
        for (uint64_t hk : is.hot_keys) out += " hot=" + std::to_string(hk);
        add("salt_fanout", is.salt_fanout);
        add("avail_excess", is.avail_excess);
        add("down", is.down_share);
        add("failover", is.failover_share);
        add("hedge", is.hedge_share);
        add("hedge_win", is.hedge_win_share);
        add("flaky", is.flaky_share);
        add("corrupt", is.corrupt_share);
        add("breaker", is.breaker_share);
        add("pages", is.pages_per_lookup);
      }
      out += "\n";
    }
  }
  return out;
}

// A baseline run's uncached lookup slots feed the shadow caches behind R
// from tasks that run task by task on all 8 threads; the merge replays
// their probes per node in task order, so every statistic, R included, is
// bit-identical to the serial run. 30 splits on 2 nodes.
TEST(DeterminismStatsTest, ShadowFedStatisticsMatchAcrossThreadCounts) {
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob();
  const auto input = world.MakeInput(30, 40, 400, /*seed=*/1,
                                     /*num_nodes=*/2);
  RunnerPair pair((ClusterConfig()));
  const CollectedStats a = pair.serial.CollectStatistics(conf, input);
  const CollectedStats b = pair.parallel.CollectStatistics(conf, input);
  ASSERT_EQ(a.head.size(), 1u);
  ASSERT_EQ(a.head[0].index.size(), 1u);
  // The shadow caches saw both hits and misses.
  EXPECT_GT(a.head[0].index[0].miss_ratio, 0.0);
  EXPECT_LT(a.head[0].index[0].miss_ratio, 1.0);
  EXPECT_EQ(StatsHex(a), StatsHex(b));
}

/// A serial accessor whose first lookup waits (up to 10 s) until a second
/// lookup runs concurrently with it. Once they met, or the wait timed out,
/// no lookup waits again.
class RendezvousAccessor : public IndexAccessor {
 public:
  std::string name() const override { return "rendezvous"; }
  double ServiceSeconds(uint64_t) const override { return 1e-4; }

  Status Lookup(const std::string& ik, std::vector<IndexValue>* out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!done_) {
        if (++waiting_ >= 2) {
          met_ = true;
          done_ = true;
          cv_.notify_all();
        } else if (!cv_.wait_for(lock, std::chrono::seconds(10),
                                 [this] { return done_; })) {
          done_ = true;
        }
        --waiting_;
      }
    }
    out->clear();
    out->emplace_back("v:" + ik);
    return Status::OK();
  }

  bool met() {
    std::lock_guard<std::mutex> lock(mu_);
    return met_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool done_ = false;
  bool met_ = false;
};

// Statistics are task-local: an uncached lookup slot with a statistics
// runtime holds no node state, so one node's tasks run concurrently. On a
// 1-node cluster at 4 threads, two of its tasks must be inside a lookup at
// once; a node strand would run them one at a time and time out.
TEST(DeterminismStatsTest, StatisticsRunDoesNotSerializeANodesTasks) {
  ClusterConfig config;
  config.num_nodes = 1;
  auto accessor = std::make_shared<RendezvousAccessor>();
  auto op = std::make_shared<testing_util::JoinOperator>();
  op->AddIndex(accessor);
  OperatorRuntime rt(1, config.num_nodes, 16);
  JobConfig job;
  job.map_stages.push_back(
      std::make_shared<PreProcessStage>(op, &rt, "efind.h0"));
  job.map_stages.push_back(std::make_shared<InlineLookupStage>(
      op, std::vector<InlineIndexTask>{{0, /*use_cache=*/false}}, &rt,
      &config, 16, "efind.h0"));
  std::vector<InputSplit> input(4);
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = 0;
    for (int r = 0; r < 3; ++r) {
      input[s].records.push_back(Record("k" + std::to_string(r), "v"));
    }
  }
  JobRunner runner(config);
  runner.set_num_threads(4);
  runner.Run(job, input);
  EXPECT_TRUE(accessor->met());
  // The merge still replayed every shadow probe: 3 distinct keys, 12 probes.
  const OperatorStats stats = rt.Compute(config.num_nodes, 1.0);
  ASSERT_EQ(stats.index.size(), 1u);
  EXPECT_EQ(stats.index[0].miss_ratio, 3.0 / 12.0);
}

// The plain JobRunner (no EFind stages) must also be thread-count
// invariant, including per-task counters and the reduce-side grouping.
TEST(JobRunnerDeterminismTest, PlainJobMatchesAcrossThreadCounts) {
  ToyWorld world;
  const auto input = world.MakeInput(24, 50, 200);
  ClusterConfig config;
  JobConfig job;
  job.reducer = std::make_shared<testing_util::CountReducer>();
  job.num_reduce_tasks = 16;

  JobRunner serial(config);
  serial.set_num_threads(1);
  JobRunner parallel(config);
  parallel.set_num_threads(8);
  JobResult a = serial.Run(job, input);
  JobResult b = parallel.Run(job, input);

  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.map_task_durations, b.map_task_durations);
  EXPECT_EQ(a.counters.values(), b.counters.values());
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i].node, b.outputs[i].node);
    EXPECT_EQ(a.outputs[i].records, b.outputs[i].records);
  }
}

}  // namespace
}  // namespace efind
