// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The run ledger invariant: every physical job of an EFind run, fixed plan
// or adaptive, is booked once. For each strategy, both forced job-boundary
// placements, a reuse hit and every RunDynamic outcome (kept, re-planned to
// the lookup cache, re-planned to re-partitioning, re-planned at the tail),
// the `jobs` summaries (boundary + map + reduce) sum to `sim_seconds`, and
// every summary with tasks has exactly one `job` trace span of its name.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"
#include "service/cloud_service.h"
#include "tests/test_util.h"
#include "workloads/log_trace.h"

namespace efind {
namespace {

using testing_util::ToyWorld;

void ExpectLedger(const EFindRunResult& r, const obs::ObsSession& session) {
  ASSERT_FALSE(r.jobs.empty());
  double booked = 0.0;
  for (const JobStageSummary& j : r.jobs) {
    booked += j.boundary_seconds + j.map_seconds + j.reduce_seconds;
  }
  const double ulps = static_cast<double>(r.jobs.size()) *
                      std::numeric_limits<double>::epsilon() * r.sim_seconds;
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_NEAR(booked, r.sim_seconds, ulps);
  for (const JobStageSummary& j : r.jobs) {
    if (j.map_tasks + j.reduce_tasks == 0) continue;
    int spans = 0;
    for (const obs::TraceEvent& e : session.trace().events()) {
      if (e.category == "job" && e.name == j.name) ++spans;
    }
    EXPECT_EQ(spans, 1) << j.name;
  }
}

class LedgerTest : public ::testing::Test {
 protected:
  // The toy join with a count reduce: 2 map waves of 96 splits over 40 keys.
  LedgerTest()
      : world_(100, /*value_bytes=*/300),
        input_(world_.MakeInput(192, 60, 40)),
        conf_(world_.MakeJoinJob(/*with_reduce=*/true)) {}

  void RunStrategy(Strategy strategy, const EFindOptions& options = {}) {
    obs::ObsSession session;
    EFindJobRunner runner(config_, options);
    runner.set_obs(&session);
    ExpectLedger(runner.RunWithStrategy(conf_, input_, strategy), session);
  }

  // RunDynamic of the LOG top-URLs job, as in batch_boundary_test.
  EFindRunResult RunLog(uint64_t seed, double latency_sec, double ip_zipf,
                        obs::ObsSession* session) {
    LogTraceOptions log;
    log.num_events = 20000;
    log.num_ips = 5000;
    log.num_urls = 2000;
    log.num_splits = 192;
    log.ip_zipf = ip_zipf;
    log.seed = seed;
    const auto input = GenerateLogTrace(log, config_.num_nodes);
    CloudServiceOptions service;
    service.base_latency_sec = latency_sec;
    const CloudService geo = MakeGeoIpService(50, service);
    EFindJobRunner runner(config_);
    runner.set_obs(session);
    return runner.RunDynamic(MakeLogTopUrlsJob(&geo, 10), input);
  }

  ClusterConfig config_;
  ToyWorld world_;
  std::vector<InputSplit> input_;
  IndexJobConf conf_;
};

TEST_F(LedgerTest, FixedStrategies) {
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    SCOPED_TRACE(ToString(s));
    RunStrategy(s);
  }
}

TEST_F(LedgerTest, ForcedBoundaries) {
  for (BoundaryPolicy policy :
       {BoundaryPolicy::kForcePre, BoundaryPolicy::kForcePost}) {
    SCOPED_TRACE(policy == BoundaryPolicy::kForcePre ? "pre" : "post");
    EFindOptions options;
    options.boundary_policy = policy;
    RunStrategy(Strategy::kRepartition, options);
  }
}

TEST_F(LedgerTest, SaltedWithStatsHint) {
  const auto input = world_.MakeZipfInput(48, 60, 100, 1.2);
  EFindJobRunner runner(config_);
  const CollectedStats stats = runner.CollectStatistics(conf_, input);
  ASSERT_FALSE(stats.head[0].index[0].hot_keys.empty());
  obs::ObsSession session;
  runner.set_obs(&session);
  ExpectLedger(runner.RunWithPlan(
                   conf_, input,
                   MakeUniformPlan(conf_, Strategy::kSaltedRepartition),
                   &stats),
               session);
}

TEST_F(LedgerTest, ReuseHit) {
  reuse::MaterializedStore store(64ull << 20, config_.num_nodes);
  EFindJobRunner runner(config_);
  runner.set_reuse(&store);
  runner.RunWithStrategy(conf_, input_, Strategy::kRepartition);
  obs::ObsSession session;
  runner.set_obs(&session);
  const EFindRunResult warm =
      runner.RunWithStrategy(conf_, input_, Strategy::kRepartition);
  EXPECT_EQ(store.stats().hits, 1u);
  ExpectLedger(warm, session);
}

TEST_F(LedgerTest, DynamicKept) {
  obs::ObsSession session;
  const EFindRunResult r = RunLog(3, 1e-6, 0.9, &session);
  EXPECT_FALSE(r.replanned);
  ExpectLedger(r, session);
}

TEST_F(LedgerTest, DynamicReplanToCache) {
  obs::ObsSession session;
  const EFindRunResult r = RunLog(2, 1.8e-3, 1.4, &session);
  ASSERT_TRUE(r.replanned);
  EXPECT_EQ(r.plan.head[0].order[0].strategy, Strategy::kLookupCache);
  ExpectLedger(r, session);
}

TEST_F(LedgerTest, DynamicReplanToRepartition) {
  obs::ObsSession session;
  const EFindRunResult r = RunLog(1, 1.8e-3, 0.9, &session);
  ASSERT_TRUE(r.replanned);
  EXPECT_EQ(r.plan.head[0].order[0].strategy, Strategy::kRepartition);
  ExpectLedger(r, session);
}

TEST_F(LedgerTest, DynamicToyReplan) {
  obs::ObsSession session;
  EFindJobRunner runner(config_);
  runner.set_obs(&session);
  const EFindRunResult r = runner.RunDynamic(conf_, input_);
  ASSERT_TRUE(r.replanned);
  ExpectLedger(r, session);
}

// The Fig. 10b job AdaptiveTest.TailReplanSwitchesToCache pins.
TEST_F(LedgerTest, DynamicTailReplan) {
  const testing_util::TailReplanJob job;
  obs::ObsSession session;
  EFindJobRunner runner(config_, job.options);
  runner.set_obs(&session);
  const EFindRunResult r = runner.RunDynamic(job.conf, job.input);
  ASSERT_TRUE(r.replanned);
  ExpectLedger(r, session);
}

}  // namespace
}  // namespace efind
