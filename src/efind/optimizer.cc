#include "efind/optimizer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

namespace efind {

std::vector<Strategy> Optimizer::FeasibleStrategies(const IndexStats& is) {
  std::vector<Strategy> out = {Strategy::kBaseline};
  if (!is.idempotent) return out;  // §3.2: non-idempotent forces baseline.
  out.push_back(Strategy::kLookupCache);
  if (is.repartitionable) {
    out.push_back(Strategy::kRepartition);
    // Salted re-partitioning is a candidate only when the skew detector
    // flagged heavy hitters (DESIGN.md §12); on benign streams it would
    // execute identically to plain re-partitioning, so offering it would
    // only widen the search.
    if (!is.hot_keys.empty()) {
      out.push_back(Strategy::kSaltedRepartition);
    }
    // Index locality pins lookups to the partition hosts; when observation
    // says most lookups found their host down — or the circuit breaker is
    // routing most of them away from their primary — the strategy is
    // infeasible regardless of its (inflated) cost estimate — the paper's
    // footnote 3 concern made concrete.
    if (is.has_partition_scheme && is.down_share <= 0.5 &&
        is.breaker_share <= 0.5) {
      out.push_back(Strategy::kIndexLocality);
    }
  }
  return out;
}

OperatorPlan Optimizer::EvaluateOrder(const std::vector<int>& order,
                                      const OperatorStats& stats,
                                      OperatorPosition position,
                                      int repart_allowed_prefix) const {
  OperatorPlan plan;
  double spre_eff = stats.spre;
  bool base_or_cache_seen = false;
  int pos_in_order = 0;
  for (int j : order) {
    const IndexStats& is = stats.index[j];
    double best_cost = std::numeric_limits<double>::infinity();
    Strategy best = Strategy::kBaseline;
    for (Strategy s : FeasibleStrategies(is)) {
      const bool is_repart = s == Strategy::kRepartition ||
                             s == Strategy::kSaltedRepartition ||
                             s == Strategy::kIndexLocality;
      if (is_repart &&
          (base_or_cache_seen || pos_in_order >= repart_allowed_prefix)) {
        // Property 4: once baseline/cache is chosen (or past the allowed
        // prefix), only baseline/cache remain candidates.
        continue;
      }
      const double c = cost_model_.Cost(s, stats, j, position, spre_eff);
      if (c < best_cost) {
        best_cost = c;
        best = s;
      }
    }
    if (best == Strategy::kBaseline || best == Strategy::kLookupCache) {
      base_or_cache_seen = true;
    }
    plan.order.push_back({j, best, best_cost});
    plan.estimated_cost += best_cost;
    spre_eff += is.nik * is.siv;
    ++pos_in_order;
  }
  return plan;
}

OperatorPlan Optimizer::FullEnumerate(const OperatorStats& stats,
                                      OperatorPosition position) const {
  const int m = static_cast<int>(stats.index.size());
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);

  OperatorPlan best;
  best.estimated_cost = std::numeric_limits<double>::infinity();
  last_plans_considered_ = 0;
  do {
    ++last_plans_considered_;
    OperatorPlan candidate = EvaluateOrder(order, stats, position, m);
    if (candidate.estimated_cost < best.estimated_cost) best = candidate;
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

OperatorPlan Optimizer::KRepart(const OperatorStats& stats,
                                OperatorPosition position, int k) const {
  const int m = static_cast<int>(stats.index.size());
  if (k > m) k = m;
  if (k < 0) k = 0;

  OperatorPlan best;
  best.estimated_cost = std::numeric_limits<double>::infinity();
  last_plans_considered_ = 0;

  // Enumerate all k-permutations as the repart-capable prefix; the
  // remaining indices follow in declared order, restricted to base/cache.
  std::vector<int> prefix;
  std::vector<bool> used(m, false);
  // Depth-first over prefixes (includes the empty prefix once).
  struct Frame {
    int next_candidate = 0;
  };
  auto evaluate = [&](const std::vector<int>& pfx) {
    std::vector<int> order = pfx;
    for (int j = 0; j < m; ++j) {
      if (!used[j]) order.push_back(j);
    }
    ++last_plans_considered_;
    OperatorPlan candidate =
        EvaluateOrder(order, stats, position, static_cast<int>(pfx.size()));
    if (candidate.estimated_cost < best.estimated_cost) best = candidate;
  };

  // Recursive lambda via explicit stack-free recursion helper.
  std::function<void()> recurse = [&]() {
    evaluate(prefix);
    if (static_cast<int>(prefix.size()) == k) return;
    for (int j = 0; j < m; ++j) {
      if (used[j]) continue;
      used[j] = true;
      prefix.push_back(j);
      recurse();
      prefix.pop_back();
      used[j] = false;
    }
  };
  recurse();
  return best;
}

OperatorPlan Optimizer::OptimizeOperator(const OperatorStats& stats,
                                         OperatorPosition position) const {
  const int m = static_cast<int>(stats.index.size());
  if (m == 0) return OperatorPlan{};
  if (m <= kFullEnumerateMaxIndices) return FullEnumerate(stats, position);
  return KRepart(stats, position, kFallbackRepartK);
}

JobPlan Optimizer::OptimizeJob(
    const IndexJobConf& conf, const std::vector<OperatorStats>& head_stats,
    const std::vector<OperatorStats>& body_stats,
    const std::vector<OperatorStats>& tail_stats) const {
  JobPlan plan = MakeUniformPlan(conf, Strategy::kBaseline);
  auto optimize_group =
      [&](const std::vector<std::shared_ptr<IndexOperator>>& ops,
          const std::vector<OperatorStats>& stats, OperatorPosition position,
          std::vector<OperatorPlan>* out) {
        for (size_t i = 0; i < ops.size(); ++i) {
          if (i < stats.size() && stats[i].valid) {
            (*out)[i] = OptimizeOperator(stats[i], position);
          }
        }
      };
  optimize_group(conf.head_ops(), head_stats, OperatorPosition::kHead,
                 &plan.head);
  optimize_group(conf.body_ops(), body_stats, OperatorPosition::kBody,
                 &plan.body);
  optimize_group(conf.tail_ops(), tail_stats, OperatorPosition::kTail,
                 &plan.tail);
  return plan;
}

}  // namespace efind
