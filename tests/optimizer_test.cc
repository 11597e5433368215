#include "efind/optimizer.h"

#include <gtest/gtest.h>

#include <vector>

namespace efind {
namespace {

IndexStats MakeIndex(double nik, double siv, double tj, double theta,
                     double miss_ratio, bool scheme = true) {
  IndexStats is;
  is.nik = nik;
  is.sik = 8;
  is.siv = siv;
  is.tj = tj;
  is.theta = theta;
  is.miss_ratio = miss_ratio;
  is.idempotent = true;
  is.repartitionable = true;
  is.has_partition_scheme = scheme;
  return is;
}

OperatorStats MakeStats(std::vector<IndexStats> indices, double n1 = 50000) {
  OperatorStats stats;
  stats.valid = true;
  stats.n1 = n1;
  stats.s1 = 400;
  stats.spre = 120;
  stats.spost = 150;
  stats.index = std::move(indices);
  stats.tasks_sampled = 8;
  return stats;
}

TEST(OptimizerTest, SingleIndexHighLocalityPicksCache) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({MakeIndex(1, 200, 1e-3, 1.2, 0.2)});
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  ASSERT_EQ(plan.order.size(), 1u);
  EXPECT_EQ(plan.order[0].strategy, Strategy::kLookupCache);
}

TEST(OptimizerTest, SingleIndexHighThetaNoLocalityPicksRepart) {
  Optimizer opt((ClusterConfig()));
  // No cache benefit (R=1), heavy duplication across machines, no scheme.
  OperatorStats stats =
      MakeStats({MakeIndex(1, 200, 1e-3, 20, 1.0, /*scheme=*/false)});
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_EQ(plan.order[0].strategy, Strategy::kRepartition);
}

TEST(OptimizerTest, LargeResultsWithSchemePickIndexLocality) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({MakeIndex(1, 30000, 1e-4, 2, 1.0)});
  stats.spre = 1000;
  stats.spost = 32000;
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_EQ(plan.order[0].strategy, Strategy::kIndexLocality);
}

TEST(OptimizerTest, TinyJobStaysBaseline) {
  Optimizer opt((ClusterConfig()));
  // 3 lookups per machine: nothing can beat just doing them.
  OperatorStats stats = MakeStats({MakeIndex(1, 50, 1e-4, 5, 1.0)}, 3);
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_EQ(plan.order[0].strategy, Strategy::kBaseline);
}

TEST(OptimizerTest, NonIdempotentForcedToBaseline) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({MakeIndex(1, 200, 1e-3, 20, 0.1)});
  stats.index[0].idempotent = false;
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_EQ(plan.order[0].strategy, Strategy::kBaseline);
}

TEST(OptimizerTest, MultiKeyIndexCannotRepartition) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({MakeIndex(2, 200, 1e-3, 20, 1.0)});
  stats.index[0].repartitionable = false;
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_TRUE(plan.order[0].strategy == Strategy::kBaseline ||
              plan.order[0].strategy == Strategy::kLookupCache);
}

TEST(OptimizerTest, FeasibleStrategiesRespectFlags) {
  IndexStats free = MakeIndex(1, 10, 1e-4, 1, 1);
  EXPECT_EQ(Optimizer::FeasibleStrategies(free).size(), 4u);
  free.has_partition_scheme = false;
  EXPECT_EQ(Optimizer::FeasibleStrategies(free).size(), 3u);
  free.repartitionable = false;
  EXPECT_EQ(Optimizer::FeasibleStrategies(free).size(), 2u);
  free.idempotent = false;
  EXPECT_EQ(Optimizer::FeasibleStrategies(free).size(), 1u);
}

TEST(OptimizerTest, PropertyFourRepartBeforeCache) {
  // Two indices: one repart-worthy, one cache-worthy. Any returned order
  // must put repart/idxloc choices before base/cache choices.
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({
      MakeIndex(1, 300, 1e-3, 1.1, 0.05),  // cache-friendly
      MakeIndex(1, 300, 1e-3, 25, 1.0),    // repart-friendly
  });
  OperatorPlan plan = opt.FullEnumerate(stats, OperatorPosition::kHead);
  ASSERT_EQ(plan.order.size(), 2u);
  bool seen_inline = false;
  for (const auto& c : plan.order) {
    const bool is_shuffle = c.strategy == Strategy::kRepartition ||
                            c.strategy == Strategy::kIndexLocality;
    if (is_shuffle) {
      EXPECT_FALSE(seen_inline);
    } else {
      seen_inline = true;
    }
  }
}

TEST(OptimizerTest, FullEnumerateConsidersAllOrders) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9),
  });
  opt.FullEnumerate(stats, OperatorPosition::kHead);
  EXPECT_EQ(opt.last_plans_considered(), 6u);  // 3!.
}

TEST(OptimizerTest, KRepartConsidersPermutationPrefixes) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9),
  });
  opt.KRepart(stats, OperatorPosition::kHead, 1);
  // Empty prefix + P(4,1) = 5 candidates.
  EXPECT_EQ(opt.last_plans_considered(), 5u);
  opt.KRepart(stats, OperatorPosition::kHead, 2);
  // 1 + 4 + 12 = 17 candidates.
  EXPECT_EQ(opt.last_plans_considered(), 17u);
}

TEST(OptimizerTest, KRepartNeverBeatsFullEnumerate) {
  ClusterConfig config;
  Optimizer opt(config);
  // Mixed bag of indices; FullEnumerate is exhaustive so it lower-bounds.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    OperatorStats stats = MakeStats({
        MakeIndex(1, 100 + 200 * (seed % 3), 1e-3, 1 + seed % 5, 0.9),
        MakeIndex(1, 5000, 5e-4, 2, 1.0),
        MakeIndex(1, 50, 2e-3, 30, 0.3),
    });
    OperatorPlan full = opt.FullEnumerate(stats, OperatorPosition::kHead);
    OperatorPlan k1 = opt.KRepart(stats, OperatorPosition::kHead, 1);
    OperatorPlan k2 = opt.KRepart(stats, OperatorPosition::kHead, 2);
    EXPECT_LE(full.estimated_cost, k1.estimated_cost + 1e-9);
    EXPECT_LE(full.estimated_cost, k2.estimated_cost + 1e-9);
    EXPECT_LE(k2.estimated_cost, k1.estimated_cost + 1e-9);
  }
}

TEST(OptimizerTest, ManyIndicesFallBackToKRepart) {
  Optimizer opt((ClusterConfig()));
  // Six indices: one past FullEnumerate's m <= 5, so 2-Repart plans.
  OperatorStats stats = MakeStats({
      MakeIndex(1, 100, 1e-3, 2, 0.9), MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9), MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 100, 1e-3, 2, 0.9), MakeIndex(1, 100, 1e-3, 2, 0.9),
  });
  opt.OptimizeOperator(stats, OperatorPosition::kHead);
  EXPECT_EQ(opt.last_plans_considered(), 37u);  // 1 + P(6,1) + P(6,2).
}

TEST(OptimizerTest, PlanCoversEveryIndexExactlyOnce) {
  Optimizer opt((ClusterConfig()));
  OperatorStats stats = MakeStats({
      MakeIndex(1, 100, 1e-3, 2, 0.9),
      MakeIndex(1, 300, 1e-3, 8, 1.0),
      MakeIndex(1, 700, 1e-3, 1, 0.2),
  });
  OperatorPlan plan = opt.OptimizeOperator(stats, OperatorPosition::kHead);
  std::vector<bool> seen(3, false);
  for (const auto& c : plan.order) {
    ASSERT_GE(c.index, 0);
    ASSERT_LT(c.index, 3);
    EXPECT_FALSE(seen[c.index]);
    seen[c.index] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace efind
