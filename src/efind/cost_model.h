// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_COST_MODEL_H_
#define EFIND_EFIND_COST_MODEL_H_

#include "cluster/cluster.h"
#include "efind/index_operator.h"
#include "efind/plan.h"
#include "efind/statistics.h"

namespace efind {

/// The paper's per-machine cost formulas (Section 3, Equations 1-4).
///
/// Costs are in seconds per machine node; "as all the index access
/// strategies pay similar local computation costs for preProcess and
/// postProcess, we can omit them in the cost analysis formulae without
/// changing the relative costs" — the model therefore prices only lookups,
/// cache probes, shuffling, and the job-boundary DFS round trip.
///
/// Multi-index operators access indices in a chosen order; `spre_eff` is
/// Spre plus the attached results of all earlier indices in that order
/// (Property 2: shuffled data must contain earlier lookup results).
class CostModel {
 public:
  explicit CostModel(const ClusterConfig& config) : config_(config) {}

  /// Eq. (1): Cost_base = N1 * Nik_j * ((Sik_j + Siv_j)/BW + T_j).
  double BaselineCost(const OperatorStats& stats, int j) const;

  /// Eq. (2): Cost_cache = N1 * Nik_j * (T_cache + R*((Sik+Siv)/BW + T_j)).
  double CacheCost(const OperatorStats& stats, int j) const;

  /// Eq. (3): Cost_repart = Cost_shuffle + Cost_result + Cost_lookup with
  /// lookups deduplicated by the cluster-wide duplicate factor Theta, plus
  /// the skew excess a hot key's serialized reduce wave adds (DESIGN.md
  /// §12; zero for benign key distributions).
  double RepartitionCost(const OperatorStats& stats, int j,
                         OperatorPosition position, double spre_eff) const;

  /// DESIGN.md §12: Eq. (3) with the hot keys' pinned share divided by the
  /// salt spread, plus one duplicate grouped lookup per extra sub-partition.
  /// Cheaper than RepartitionCost exactly when skew is material.
  double SaltedRepartitionCost(const OperatorStats& stats, int j,
                               OperatorPosition position,
                               double spre_eff) const;

  /// Extra per-machine seconds the slowest node pays over the balanced
  /// Eq. 3 estimate when the hottest key's share is pinned to it, with the
  /// share divided across `spread` salted sub-partitions (1 = unsalted).
  double SkewExcessCost(const OperatorStats& stats, const IndexStats& is,
                        OperatorPosition position, double spre_eff,
                        int spread) const;

  /// Nodes a hot key's sub-partitions effectively spread over:
  /// min(salt_fanout, num_nodes), at least 1.
  int EffectiveSaltSpread(const IndexStats& is) const;

  /// Eq. (4): like re-partitioning, but the lookup leg pays T_j only
  /// (local) plus moving the main data to the index hosts (N1*Spre/BW).
  double IndexLocalityCost(const OperatorStats& stats, int j,
                           OperatorPosition position, double spre_eff) const;

  /// Dispatch by strategy.
  double Cost(Strategy strategy, const OperatorStats& stats, int j,
              OperatorPosition position, double spre_eff) const;

  /// Per-lookup page-I/O seconds of a storage-backed index (DESIGN.md §13):
  /// pages_per_lookup * t_page / batch_efficiency, where batch efficiency
  /// is the page reads the runtime overlaps per device wave —
  /// min(store_batch_depth, store_io_parallelism). Zero for in-memory
  /// indices (pages_per_lookup == 0), leaving Eq. 1-4 untouched.
  double PageReadCost(const IndexStats& is) const;

  /// Cost_shuffle = N1 * Spre / BW (transfer of preProcess output).
  double ShuffleCost(const OperatorStats& stats, double spre_eff) const;

  /// Fixed overhead of the extra MapReduce job a re-partitioning / index-
  /// locality strategy introduces (task startup waves). The paper's Eq. 3-4
  /// omit it, but its §3.5 discussion relies on it being non-trivial.
  double ExtraJobSeconds() const;

  /// Per-machine cost of pushing the data through the extra job: disk
  /// reads/writes, the re-spill, and per-record CPU. Eq. 3-4 omit this too;
  /// without it the model prefers shuffle strategies whenever the lookup
  /// arithmetic is marginally better, which the measured runs contradict.
  double ExtraPassCost(const OperatorStats& stats, double spre_eff) const;

  /// The S_min term of Cost_result. The executable boundary placements in
  /// this implementation are "after pre/group" (stores Spre) and "after
  /// postProcess" (stores Spost); see DESIGN.md §3. Tail operators always
  /// store Spre (<= S1 in practice, pre prunes fields).
  double MinBoundaryBytes(const OperatorStats& stats,
                          OperatorPosition position, double spre_eff) const;

  /// True when the "after postProcess" boundary is cheaper: the operator's
  /// remaining stages then execute inside the shuffle job's reduce side
  /// (Fig. 7's rightmost placements), storing Spost instead of Spre. The
  /// DFS savings must outweigh running the grouped lookups on the reduce
  /// slots instead of the (more numerous) map slots;
  /// `lookup_cost_after_dedup` is that leg's per-machine cost.
  bool PreferPostBoundary(const OperatorStats& stats,
                          OperatorPosition position, double spre_eff,
                          double lookup_cost_after_dedup) const;

  /// Total estimated cost of an operator plan (sums per-index costs along
  /// the access order, accumulating spre_eff; Property 3 makes per-index
  /// costs independent once the order is fixed).
  double OperatorPlanCost(const OperatorPlan& plan, const OperatorStats& stats,
                          OperatorPosition position) const;

  const ClusterConfig& config() const { return config_; }

 private:
  /// Seconds of one remote lookup of the index described by `is`: the
  /// network round trip of key and value, the accessor's marshalling
  /// overhead, T_j, the observed fault excess and the page reads — the
  /// per-lookup term of Eq. 1-3.
  double RemoteLookupCost(const IndexStats& is) const;

  /// Cost_result = f * N1 * S_min.
  double ResultCost(const OperatorStats& stats, OperatorPosition position,
                    double spre_eff) const;

  /// Eq. (3) without the skew excess — shared by the plain and the salted
  /// re-partitioning costs.
  double RepartitionBase(const OperatorStats& stats, int j,
                         OperatorPosition position, double spre_eff) const;

  ClusterConfig config_;
};

}  // namespace efind

#endif  // EFIND_EFIND_COST_MODEL_H_
