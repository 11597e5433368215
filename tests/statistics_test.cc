#include "efind/statistics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapreduce/stage.h"

namespace efind {
namespace {

std::vector<std::vector<std::string>> OneKey(const std::string& k) {
  return {{k}};
}

TEST(OperatorRuntimeTest, EmptyIsInvalid) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_FALSE(stats.valid);
}

TEST(OperatorRuntimeTest, BasicTableOneTerms) {
  OperatorRuntime rt(1, 12, 1024);
  // Two tasks, 3 records each; input 100 B, pre output 60 B, one 8-byte key
  // per record. The first task performs the lookups.
  for (int task = 0; task < 2; ++task) {
    OperatorTaskStats ts(&rt);
    for (int r = 0; r < 3; ++r) {
      ts.PreRecord(100, 60, OneKey("key" + std::to_string(r) + "0000"));
    }
    if (task == 0) {
      for (int i = 0; i < 6; ++i) ts.LookupPerformed(0, 200, 0.001);
    }
    rt.AbsorbTask(ts);
  }
  // A post-side task.
  OperatorTaskStats post(&rt);
  post.PostRecord(30);
  post.PostRecord(30);
  rt.AbsorbTask(post);

  OperatorStats stats = rt.Compute(12, 1.0);
  ASSERT_TRUE(stats.valid);
  EXPECT_DOUBLE_EQ(stats.n1, 6.0 / 12);
  EXPECT_DOUBLE_EQ(stats.s1, 100.0);
  EXPECT_DOUBLE_EQ(stats.spre, 60.0);
  EXPECT_DOUBLE_EQ(stats.spost, 30.0);
  ASSERT_EQ(stats.index.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.index[0].nik, 1.0);
  EXPECT_DOUBLE_EQ(stats.index[0].sik, 8.0);
  EXPECT_DOUBLE_EQ(stats.index[0].siv, 200.0);
  EXPECT_DOUBLE_EQ(stats.index[0].tj, 0.001);
  EXPECT_TRUE(stats.index[0].repartitionable);
  EXPECT_EQ(stats.tasks_sampled, 2u);
}

TEST(OperatorRuntimeTest, ExtrapolationScalesN1Only) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorTaskStats ts(&rt);
  for (int r = 0; r < 10; ++r) ts.PreRecord(50, 50, OneKey("k"));
  rt.AbsorbTask(ts);
  OperatorStats s1 = rt.Compute(12, 1.0);
  OperatorStats s4 = rt.Compute(12, 4.0);
  EXPECT_DOUBLE_EQ(s4.n1, 4 * s1.n1);
  EXPECT_DOUBLE_EQ(s4.s1, s1.s1);
  EXPECT_DOUBLE_EQ(s4.spre, s1.spre);
}

TEST(OperatorRuntimeTest, ThetaFromDuplicates) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorTaskStats ts(&rt);
  // 5000 distinct keys, each extracted 3 times -> Theta ~ 3.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      ts.PreRecord(10, 10, OneKey("key" + std::to_string(i)));
    }
  }
  rt.AbsorbTask(ts);
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_GT(stats.index[0].theta, 2.0);
  EXPECT_LT(stats.index[0].theta, 4.5);
}

TEST(OperatorRuntimeTest, MultiKeyRecordsBlockRepartitioning) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorTaskStats ts(&rt);
  ts.PreRecord(10, 10, {{"a", "b"}});  // Two keys for index 0.
  ts.PreRecord(10, 10, OneKey("c"));
  rt.AbsorbTask(ts);
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_FALSE(stats.index[0].repartitionable);
  EXPECT_DOUBLE_EQ(stats.index[0].nik, 1.5);
}

TEST(OperatorRuntimeTest, ShadowCacheEstimatesMissRatio) {
  OperatorRuntime rt(1, 2, 4);  // Capacity 4, two nodes.
  // Node 0 sees the same key repeatedly: high hit rate. Node 1 scans.
  OperatorTaskStats node0(&rt), node1(&rt);
  for (int i = 0; i < 100; ++i) node0.ShadowProbe(0, 0, "hot");
  for (int i = 0; i < 100; ++i) {
    node1.ShadowProbe(0, 1, "cold" + std::to_string(i));
  }
  rt.AbsorbTask(node0);
  rt.AbsorbTask(node1);
  OperatorStats stats = rt.Compute(2, 1.0);
  // 1 miss + 99 hits on node 0; 100 misses on node 1 => R ~ 101/200.
  EXPECT_NEAR(stats.index[0].miss_ratio, 0.505, 1e-9);
}

TEST(OperatorRuntimeTest, ShadowCachesArePerNode) {
  OperatorRuntime rt(1, 2, 4);
  // The same key probed on two nodes misses on each: node 1's LRU does not
  // see node 0's insert. A second probe on node 0 hits.
  OperatorTaskStats ts(&rt);
  ts.ShadowProbe(0, 0, "k");
  ts.ShadowProbe(0, 1, "k");
  ts.ShadowProbe(0, 0, "k");
  rt.AbsorbTask(ts);
  EXPECT_DOUBLE_EQ(rt.Compute(2, 1.0).index[0].miss_ratio, 2.0 / 3.0);
}

TEST(OperatorRuntimeTest, CacheProbesFeedMissRatio) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorTaskStats ts(&rt);
  for (int i = 0; i < 8; ++i) ts.CacheProbe(0, i % 4 == 0);
  rt.AbsorbTask(ts);
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_DOUBLE_EQ(stats.index[0].miss_ratio, 0.25);
}

TEST(OperatorRuntimeTest, VarianceGateSeesSkew) {
  OperatorRuntime uniform(1, 12, 16), skewed(1, 12, 16);
  for (int task = 0; task < 4; ++task) {
    OperatorTaskStats u(&uniform), s(&skewed);
    for (int r = 0; r < 100; ++r) u.PreRecord(50, 50, OneKey("k"));
    const int skew_records = task == 0 ? 1000 : 10;
    for (int r = 0; r < skew_records; ++r) {
      s.PreRecord(50, 50, OneKey("k"));
    }
    uniform.AbsorbTask(u);
    skewed.AbsorbTask(s);
  }
  EXPECT_LT(uniform.Compute(12, 1.0).max_cov, 0.01);
  EXPECT_GT(skewed.Compute(12, 1.0).max_cov, 0.5);
}

TEST(OperatorRuntimeTest, PostOnlyTaskAddsOnlySpostSample) {
  OperatorRuntime rt(1, 12, 1024);
  // Two pre-side tasks with 4 and 8 records: N1/S1/Nik samples 4 and 8.
  for (int records : {4, 8}) {
    OperatorTaskStats ts(&rt);
    for (int r = 0; r < records; ++r) ts.PreRecord(10, 10, OneKey("k"));
    rt.AbsorbTask(ts);
  }
  const OperatorStats before = rt.Compute(12, 1.0);
  // A task with post records only (a reduce-side task of a tail operator):
  // one Spost sample, no N1/S1/Spre/Nik sample.
  OperatorTaskStats post(&rt);
  post.PostRecord(20);
  rt.AbsorbTask(post);
  const OperatorStats after = rt.Compute(12, 1.0);
  EXPECT_EQ(after.tasks_sampled, before.tasks_sampled);
  EXPECT_EQ(after.tasks_sampled, 2u);
  EXPECT_DOUBLE_EQ(after.n1, before.n1);
  EXPECT_DOUBLE_EQ(after.index[0].nik, before.index[0].nik);
  EXPECT_DOUBLE_EQ(after.max_cov, before.max_cov);
  EXPECT_EQ(rt.total_inputs(), 12u);
  EXPECT_DOUBLE_EQ(after.spost, 20.0);
  EXPECT_DOUBLE_EQ(before.spost, 0.0);
}

TEST(OperatorRuntimeTest, TaskLocalMergesThroughStateBag) {
  // The engine's route: a TaskContext registers the task's collector on
  // first use, and the drained state bag's merge absorbs it.
  OperatorRuntime rt(1, 12, 1024);
  TaskContext ctx(/*node_id=*/3, /*task_index=*/0, /*counters=*/nullptr);
  OperatorTaskStats* ts = rt.TaskLocal(&ctx);
  EXPECT_EQ(rt.TaskLocal(&ctx), ts);
  ts->PreRecord(100, 60, OneKey("k"));
  ts->LookupPerformed(0, 40, 0.002);
  EXPECT_EQ(rt.total_inputs(), 0u);  // Not merged yet.
  ctx.TakeTaskState().Merge();
  EXPECT_EQ(rt.total_inputs(), 1u);
  const OperatorStats stats = rt.Compute(12, 1.0);
  ASSERT_TRUE(stats.valid);
  EXPECT_DOUBLE_EQ(stats.s1, 100.0);
  EXPECT_DOUBLE_EQ(stats.index[0].siv, 40.0);
  EXPECT_DOUBLE_EQ(stats.index[0].tj, 0.002);
}

TEST(OperatorStatsTest, SidxAccumulatesResults) {
  OperatorStats stats;
  stats.spre = 100;
  stats.index.resize(2);
  stats.index[0].nik = 1;
  stats.index[0].siv = 50;
  stats.index[1].nik = 2;
  stats.index[1].siv = 10;
  EXPECT_DOUBLE_EQ(stats.SidxAfter({}), 100.0);
  EXPECT_DOUBLE_EQ(stats.SidxAfter({0}), 150.0);
  EXPECT_DOUBLE_EQ(stats.SidxAfter({0, 1}), 170.0);
}

}  // namespace
}  // namespace efind
