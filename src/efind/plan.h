// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_PLAN_H_
#define EFIND_EFIND_PLAN_H_

#include <string>
#include <vector>

#include "efind/index_operator.h"

namespace efind {

/// The paper's four index access strategies (Section 3) plus the
/// skew-aware re-partitioning variant (DESIGN.md §12).
enum class Strategy {
  /// §3.1: pre/lookup/post spliced as chained functions; every input key
  /// triggers a (remote) lookup. Cost Eq. (1).
  kBaseline,
  /// §3.2: per-node LRU cache in front of `lookup`, removing local
  /// redundancy. Cost Eq. (2).
  kLookupCache,
  /// §3.3: an extra shuffling job groups requests by lookup key, removing
  /// cross-machine redundancy; one lookup per distinct key. Cost Eq. (3).
  kRepartition,
  /// §3.4: re-partitioning co-partitioned with the index's own scheme, with
  /// post-shuffle tasks scheduled on index hosts so lookups are local.
  /// Cost Eq. (4).
  kIndexLocality,
  /// DESIGN.md §12: re-partitioning with a SaltingPartitioner that spreads
  /// detected heavy-hitter keys over k salted sub-partitions, trading a few
  /// duplicate lookups for a balanced reduce wave. Cost Eq. (3) plus the
  /// skew term. Feasible only when the skew detector flagged hot keys.
  kSaltedRepartition,
};

/// Returns "base" / "cache" / "repart" / "idxloc" / "salted".
const char* ToString(Strategy strategy);

/// Chosen strategy for one index (accessor) of an operator.
struct IndexChoice {
  /// Position of the accessor in the operator's accessor list.
  int index = 0;
  Strategy strategy = Strategy::kBaseline;
  /// Optimizer's estimated per-machine cost for this index (seconds).
  double estimated_cost = 0.0;
};

/// Plan for one `IndexOperator`: the order in which its (independent)
/// indices are accessed, and each index's strategy. Per Property 4, indices
/// using re-partitioning / index locality sort before baseline / cache ones.
struct OperatorPlan {
  std::vector<IndexChoice> order;
  double estimated_cost = 0.0;
};

/// Plan for a whole EFind-enhanced job: one `OperatorPlan` per operator,
/// parallel to the `IndexJobConf`'s head/body/tail operator lists.
struct JobPlan {
  std::vector<OperatorPlan> head;
  std::vector<OperatorPlan> body;
  std::vector<OperatorPlan> tail;

  /// The operator plans at `pos`.
  std::vector<OperatorPlan>& at(OperatorPosition pos) {
    return pos == OperatorPosition::kHead   ? head
           : pos == OperatorPosition::kBody ? body
                                            : tail;
  }
  const std::vector<OperatorPlan>& at(OperatorPosition pos) const {
    return pos == OperatorPosition::kHead   ? head
           : pos == OperatorPosition::kBody ? body
                                            : tail;
  }

  double TotalEstimatedCost() const {
    double c = 0;
    for (const auto& p : head) c += p.estimated_cost;
    for (const auto& p : body) c += p.estimated_cost;
    for (const auto& p : tail) c += p.estimated_cost;
    return c;
  }

  /// Human-readable plan dump, e.g.
  /// "head0[idx0=cache] body0[idx1=repart,idx0=cache]".
  std::string ToString() const;
};

/// A plan where every index of every operator uses `strategy`, in declared
/// order. Used as the fixed plan of the per-strategy experiments and as the
/// dynamic mode's starting plan (baseline).
JobPlan MakeUniformPlan(const IndexJobConf& conf, Strategy strategy);

}  // namespace efind

#endif  // EFIND_EFIND_PLAN_H_
