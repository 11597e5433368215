// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Ownership and byte identity across EFind job boundaries (DESIGN.md §11).
// A pipeline's own intermediate data is handed to the next job by
// ownership, so map tasks move its records into the stage chain; the
// caller's input and reuse-store artifacts are only ever borrowed. For each
// shuffle strategy this checks that the caller's input digest is unchanged
// after the run, that a reuse hit leaves the stored artifact intact, and
// that the output digest and hex simulated seconds match pins taken while
// every job boundary still copied its input.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "reuse/materialized_store.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::ToyWorld;

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct Pin {
  uint64_t digest;
  const char* sim_seconds;
};

void ExpectPinned(const EFindRunResult& r, const Pin& pin) {
  const uint64_t digest = reuse::ChecksumSplits(r.outputs);
  EXPECT_EQ(digest, pin.digest)
      << "actual digest 0x" << std::hex << digest << "ULL";
  EXPECT_EQ(Hex(r.sim_seconds), pin.sim_seconds);
}

class BoundaryOwnershipTest : public ::testing::TestWithParam<int> {
 protected:
  EFindOptions Options() const {
    EFindOptions options;
    options.threads = GetParam();
    return options;
  }
};

TEST_P(BoundaryOwnershipTest, RepartitionLeavesInputIntact) {
  ToyWorld world(150);
  const auto input = world.MakeInput(24, 40, 150);
  const uint64_t before = reuse::ChecksumSplits(input);
  EFindJobRunner runner(ClusterConfig{}, Options());
  const auto r = runner.RunWithStrategy(world.MakeJoinJob(false), input,
                                        Strategy::kRepartition);
  EXPECT_EQ(reuse::ChecksumSplits(input), before);
  ExpectPinned(r, {0x1295d27191bf1e2eULL, "0x1.cda5c4086c1e6p-7"});
}

TEST_P(BoundaryOwnershipTest, IndexLocalityLeavesInputIntact) {
  ToyWorld world(150);
  const auto input = world.MakeInput(24, 40, 150);
  const uint64_t before = reuse::ChecksumSplits(input);
  EFindJobRunner runner(ClusterConfig{}, Options());
  const auto r = runner.RunWithStrategy(world.MakeJoinJob(false), input,
                                        Strategy::kIndexLocality);
  EXPECT_EQ(reuse::ChecksumSplits(input), before);
  ExpectPinned(r, {0xb9734bd365794731ULL, "0x1.7ef6ab733b91cp-6"});
}

TEST_P(BoundaryOwnershipTest, SaltedRepartitionLeavesInputIntact) {
  ToyWorld world(150);
  const auto input = world.MakeZipfInput(24, 40, 150, 1.2);
  const uint64_t before = reuse::ChecksumSplits(input);
  const IndexJobConf conf = world.MakeJoinJob(false);
  EFindJobRunner runner(ClusterConfig{}, Options());
  const CollectedStats stats = runner.CollectStatistics(conf, input);
  ASSERT_FALSE(stats.head[0].index[0].hot_keys.empty());
  const auto r = runner.RunWithPlan(
      conf, input, MakeUniformPlan(conf, Strategy::kSaltedRepartition),
      &stats);
  EXPECT_EQ(reuse::ChecksumSplits(input), before);
  ExpectPinned(r, {0xe92b13a0b6bc8968ULL, "0x1.dc862e07aaf4ep-7"});
}

TEST_P(BoundaryOwnershipTest, PostBoundaryLeavesInputIntact) {
  ToyWorld world(150);
  const auto input = world.MakeInput(24, 40, 150);
  const uint64_t before = reuse::ChecksumSplits(input);
  EFindOptions options = Options();
  options.boundary_policy = BoundaryPolicy::kForcePost;
  EFindJobRunner runner(ClusterConfig{}, options);
  const auto r = runner.RunWithStrategy(world.MakeJoinJob(true), input,
                                        Strategy::kRepartition);
  EXPECT_EQ(reuse::ChecksumSplits(input), before);
  ExpectPinned(r, {0x581f9a5e7c627f5bULL, "0x1.2b05a2b1f6e36p-6"});
}

TEST_P(BoundaryOwnershipTest, ReuseHitLeavesArtifactIntact) {
  ToyWorld world(150);
  const auto input = world.MakeInput(24, 40, 150);
  const uint64_t before = reuse::ChecksumSplits(input);
  const ClusterConfig config;
  for (Strategy strategy :
       {Strategy::kRepartition, Strategy::kIndexLocality}) {
    SCOPED_TRACE(strategy == Strategy::kRepartition ? "repart" : "idxloc");
    reuse::MaterializedStore store(64ull << 20, config.num_nodes);
    EFindJobRunner runner(config, Options());
    runner.set_reuse(&store);
    runner.RunWithStrategy(world.MakeJoinJob(false), input, strategy);
    ASSERT_EQ(store.stats().publishes, 1u);
    const reuse::ArtifactMeta meta = store.Entries()[0];

    // Two hits in a row: the stored records' shared attachments must come
    // through the first adopter unmodified for the second to match.
    for (uint64_t hits = 1; hits <= 2; ++hits) {
      const auto hit =
          runner.RunWithStrategy(world.MakeJoinJob(false), input, strategy);
      EXPECT_EQ(store.stats().hits, hits);
      EXPECT_EQ(reuse::ChecksumSplits(input), before);
      if (strategy == Strategy::kRepartition) {
        ExpectPinned(hit, {0x1295d27191bf1e2eULL, "0x1.c16e5276a2fd3p-8"});
      } else {
        ExpectPinned(hit, {0xb9734bd365794731ULL, "0x1.395da02a689a8p-6"});
      }
    }
    const std::vector<InputSplit>* again =
        store.Resolve(meta.fingerprint, nullptr);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(reuse::ChecksumSplits(*again), meta.checksum);
    EXPECT_EQ(store.stats().hits, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BoundaryOwnershipTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "T" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace efind
