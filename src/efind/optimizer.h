// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_OPTIMIZER_H_
#define EFIND_EFIND_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "efind/cost_model.h"
#include "efind/index_operator.h"
#include "efind/plan.h"
#include "efind/statistics.h"

namespace efind {

/// Chooses index access strategies per operator (paper §3.5).
///
/// For a single index the optimizer simply takes the cheapest feasible
/// strategy. For m independent indices it searches access orders with
/// Algorithm FullEnumerate (all m! orders) or Algorithm k-Repart (all
/// P(m, k) prefixes that may use re-partitioning/index locality), applying
/// Properties 1-4: per-index costs are order-independent for base/cache,
/// order-dependent for repart/idxloc (earlier results enlarge the shuffled
/// data), and an optimal order puts repart/idxloc indices first.
class Optimizer {
 public:
  /// `OptimizeOperator` uses Algorithm FullEnumerate while m! is tractable
  /// (paper: "m <= 5, m! <= 120. It is feasible to employ Algorithm
  /// FullEnumerate"); above this many indices it falls back to k-Repart.
  static constexpr int kFullEnumerateMaxIndices = 5;
  /// k of the k-Repart fallback (the paper suggests 1- or 2-Repart).
  static constexpr int kFallbackRepartK = 2;

  explicit Optimizer(const ClusterConfig& config) : cost_model_(config) {}

  /// Optimizes one operator given its statistics. Feasibility flags inside
  /// `stats.index[j]` (idempotent, repartitionable, has_partition_scheme)
  /// gate the candidate strategies.
  OperatorPlan OptimizeOperator(const OperatorStats& stats,
                                OperatorPosition position) const;

  /// Algorithm FullEnumerate: evaluates all m! access orders.
  OperatorPlan FullEnumerate(const OperatorStats& stats,
                             OperatorPosition position) const;

  /// Algorithm k-Repart: evaluates all k-permutations as repart-capable
  /// prefixes, with the remaining indices restricted to baseline/cache.
  OperatorPlan KRepart(const OperatorStats& stats, OperatorPosition position,
                       int k) const;

  /// Optimizes a whole job: one plan per operator, from per-operator stats
  /// (parallel to the conf's head/body/tail lists). Operators whose stats
  /// are not valid keep the baseline strategy.
  JobPlan OptimizeJob(const IndexJobConf& conf,
                      const std::vector<OperatorStats>& head_stats,
                      const std::vector<OperatorStats>& body_stats,
                      const std::vector<OperatorStats>& tail_stats) const;

  /// Number of candidate plans the last OptimizeOperator call evaluated
  /// (planning-cost ablation).
  size_t last_plans_considered() const { return last_plans_considered_; }

  const CostModel& cost_model() const { return cost_model_; }

  /// Strategies admissible for index j given its capability flags.
  static std::vector<Strategy> FeasibleStrategies(const IndexStats& is);

 private:
  // Evaluates one access order. `repart_allowed_prefix` limits how many
  // leading indices may pick repart/idxloc (m for FullEnumerate, k for
  // k-Repart); Property 4 is applied within the prefix (once a base/cache
  // choice is made, later indices are restricted).
  OperatorPlan EvaluateOrder(const std::vector<int>& order,
                             const OperatorStats& stats,
                             OperatorPosition position,
                             int repart_allowed_prefix) const;

  CostModel cost_model_;
  mutable size_t last_plans_considered_ = 0;
};

}  // namespace efind

#endif  // EFIND_EFIND_OPTIMIZER_H_
