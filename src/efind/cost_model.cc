#include "efind/cost_model.h"

#include <algorithm>

namespace efind {

namespace {

bool ValidIndex(const OperatorStats& stats, int j) {
  return j >= 0 && j < static_cast<int>(stats.index.size());
}

}  // namespace

double CostModel::PageReadCost(const IndexStats& is) const {
  if (is.pages_per_lookup <= 0.0) return 0.0;
  const int batch = std::max(
      1, std::min(config_.store_batch_depth, config_.store_io_parallelism));
  return is.pages_per_lookup * config_.page_read_sec /
         static_cast<double>(batch);
}

double CostModel::RemoteLookupCost(const IndexStats& is) const {
  // `avail_excess` folds the observed per-lookup cost of every resilience
  // mechanism — host retries/backoff/failover round trips and degraded
  // service, plus the service-level hedges, flaky retries and corruption
  // re-fetches (DESIGN.md §10) — into the remote leg, so faulty services
  // inflate each strategy exactly as the runtime experienced them; it is 0
  // on a healthy cluster, leaving the paper's equations untouched.
  // `PageReadCost` does the same for storage-backed indices (0 for
  // in-memory ones).
  return config_.RemoteLookupSeconds(static_cast<uint64_t>(is.sik + is.siv)) +
         is.remote_overhead + is.tj + is.avail_excess + PageReadCost(is);
}

double CostModel::BaselineCost(const OperatorStats& stats, int j) const {
  if (!ValidIndex(stats, j)) return 0;
  const IndexStats& is = stats.index[j];
  return stats.n1 * is.nik * RemoteLookupCost(is);
}

double CostModel::CacheCost(const OperatorStats& stats, int j) const {
  if (!ValidIndex(stats, j)) return 0;
  const IndexStats& is = stats.index[j];
  return stats.n1 * is.nik *
         (config_.cache_probe_sec + is.miss_ratio * RemoteLookupCost(is));
}

double CostModel::ExtraJobSeconds() const {
  // A re-partitioning / index-locality strategy adds one MapReduce job:
  // one extra wave of map-task startups and one of reduce-task startups.
  // The paper notes this overhead "can be high, thus it is rare that such
  // strategies are chosen by many indices" (end of SS3.5).
  //
  // Unit conversion: the Eq. 1-4 terms are per-machine *work* seconds,
  // which a node retires map_slots_per_node at a time; job startup is a
  // wall-clock serialization point, so it converts to work units by the
  // slot count. The extra job typically costs ~5 wave quanta end to end
  // (shuffle map wave, two reduce waves, the follow-up lookup job's wave,
  // and scheduling slack), calibrated against the simulator in
  // bench_ablation_cost_model.
  return 5.0 * config_.task_startup_sec * config_.map_slots_per_node;
}

double CostModel::ExtraPassCost(const OperatorStats& stats,
                                double spre_eff) const {
  const double per_byte = 3.0 / config_.disk_bw_bytes_per_sec +
                          1.0 / config_.network_bw_bytes_per_sec +
                          3.0 * config_.cpu_per_byte_sec;
  return stats.n1 *
         (spre_eff * per_byte + 2.0 * config_.cpu_per_record_sec);
}

double CostModel::ShuffleCost(const OperatorStats& stats,
                              double spre_eff) const {
  return stats.n1 * spre_eff / config_.network_bw_bytes_per_sec;
}

double CostModel::MinBoundaryBytes(const OperatorStats& stats,
                                   OperatorPosition position,
                                   double spre_eff) const {
  switch (position) {
    case OperatorPosition::kHead:
    case OperatorPosition::kBody:
      // Implemented boundaries: after pre/group (Spre) or after
      // postProcess (Spost). Spost == 0 means "not yet measured"; fall
      // back to Spre.
      if (stats.spost > 0) return std::min(spre_eff, stats.spost);
      return spre_eff;
    case OperatorPosition::kTail:
      return spre_eff;
  }
  return spre_eff;
}

bool CostModel::PreferPostBoundary(const OperatorStats& stats,
                                   OperatorPosition position,
                                   double spre_eff,
                                   double lookup_cost_after_dedup) const {
  if (position == OperatorPosition::kTail) return false;
  if (stats.spost <= 0 || stats.spost >= spre_eff) return false;
  const double dfs_savings =
      config_.dfs_cost_per_byte * stats.n1 * (spre_eff - stats.spost);
  // Running the lookups reduce-side sacrifices map-slot parallelism.
  const double slots_ratio =
      config_.reduce_slots_per_node > 0
          ? static_cast<double>(config_.map_slots_per_node) /
                config_.reduce_slots_per_node
          : 1.0;
  const double slot_penalty =
      lookup_cost_after_dedup * std::max(0.0, slots_ratio - 1.0);
  return dfs_savings > slot_penalty;
}

double CostModel::ResultCost(const OperatorStats& stats,
                             OperatorPosition position,
                             double spre_eff) const {
  return config_.dfs_cost_per_byte * stats.n1 *
         MinBoundaryBytes(stats, position, spre_eff);
}

double CostModel::SkewExcessCost(const OperatorStats& stats,
                                 const IndexStats& is, OperatorPosition position,
                                 double spre_eff, int spread) const {
  // Skew term (DESIGN.md §12): Eq. 3 prices the grouped side as if it
  // spread evenly over the cluster, but a key holding `max_key_share` of
  // the stream pins that share of the *cluster-wide* grouped work — the
  // shuffle receive, the extra data pass, and the boundary store — onto a
  // single node's reduce task and onto the follow-up lookup job's one hot
  // split. Salting divides the pinned share across `spread` sub-partitions.
  double share = is.max_key_share;
  if (share <= 0.0 || config_.num_nodes <= 1) return 0.0;
  if (spread > 1) share /= spread;
  const double balanced = ShuffleCost(stats, spre_eff) +
                          ExtraPassCost(stats, spre_eff) +
                          ResultCost(stats, position, spre_eff);
  const double serialized = share * balanced * config_.num_nodes;
  return std::max(0.0, serialized - balanced);
}

int CostModel::EffectiveSaltSpread(const IndexStats& is) const {
  const int fanout = is.salt_fanout > 0 ? is.salt_fanout : 8;
  return std::max(1, std::min(fanout, config_.num_nodes));
}

double CostModel::RepartitionCost(const OperatorStats& stats, int j,
                                  OperatorPosition position,
                                  double spre_eff) const {
  if (!ValidIndex(stats, j)) return 0;
  const IndexStats& is = stats.index[j];
  return RepartitionBase(stats, j, position, spre_eff) +
         SkewExcessCost(stats, is, position, spre_eff, /*spread=*/1);
}

double CostModel::SaltedRepartitionCost(const OperatorStats& stats, int j,
                                        OperatorPosition position,
                                        double spre_eff) const {
  if (!ValidIndex(stats, j)) return 0;
  const IndexStats& is = stats.index[j];
  const int spread = EffectiveSaltSpread(is);
  // Spreading a hot key over `spread` sub-partitions costs one grouped
  // lookup per sub-partition instead of one total (the dedup-by-Theta term
  // of Eq. 3 assumed one); the duplicates run on distinct nodes, hence the
  // per-machine division.
  const double dup_lookups = static_cast<double>(is.hot_keys.size()) *
                             (spread - 1) * RemoteLookupCost(is) /
                             config_.num_nodes;
  return RepartitionBase(stats, j, position, spre_eff) +
         SkewExcessCost(stats, is, position, spre_eff, spread) + dup_lookups;
}

double CostModel::RepartitionBase(const OperatorStats& stats, int j,
                                  OperatorPosition position,
                                  double spre_eff) const {
  const IndexStats& is = stats.index[j];
  const double theta = std::max(1.0, is.theta);
  const double lookup_cost =
      stats.n1 * is.nik / theta * RemoteLookupCost(is);
  // Cross-job reuse (DESIGN.md §9): when the materialized store holds a
  // live artifact for this operator's *first* shuffle (spre_eff still at
  // its base value — later shuffles regroup augmented data the store does
  // not hold), Eq. 3 degenerates: the shuffle, the DFS store, the extra
  // job and its data pass all vanish, leaving the resolve overhead, the
  // remote retrieval of the grouped artifact, and the deduplicated lookups.
  if (is.artifact_repart && spre_eff == stats.spre) {
    const double retrieval =
        stats.n1 * spre_eff * (1.0 / config_.network_bw_bytes_per_sec +
                               config_.cpu_per_byte_sec);
    return config_.reuse_resolve_sec + retrieval + lookup_cost;
  }
  return ShuffleCost(stats, spre_eff) +
         ResultCost(stats, position, spre_eff) + lookup_cost +
         ExtraJobSeconds() + ExtraPassCost(stats, spre_eff);
}

double CostModel::IndexLocalityCost(const OperatorStats& stats, int j,
                                    OperatorPosition position,
                                    double spre_eff) const {
  if (!ValidIndex(stats, j)) return 0;
  const IndexStats& is = stats.index[j];
  const double theta = std::max(1.0, is.theta);
  // Under host faults, a `down_share` fraction of the node-local lookups
  // loses locality and is forced through the remote failover path — and
  // under the service-level fault model a `breaker_share` fraction is
  // short-circuited off its primary the same way; the remainder serves
  // locally at the clean T_j. `avail_excess` carries every resilience
  // charge (retries, backoff, failover round trips, hedges, flaky retries,
  // corruption re-fetches; DESIGN.md §10). This is how Algorithm 1's
  // mid-phase re-optimization abandons index locality when its target hosts
  // degrade: observed down/excess statistics inflate this term past the
  // cache/repartition alternatives.
  // Page reads happen at whichever host serves the lookup, so the page
  // term rides both the local and the remote leg.
  const double page_cost = PageReadCost(is);
  const double remote_per_lookup =
      config_.RemoteLookupSeconds(
          static_cast<uint64_t>(is.sik + is.siv)) +
      is.remote_overhead + is.tj + page_cost;
  const double off_node_share =
      std::min(1.0, is.down_share + is.breaker_share);
  const double local_per_lookup =
      (1.0 - off_node_share) * (is.tj + page_cost) +
      off_node_share * (remote_per_lookup + is.avail_excess);
  const double lookup_cost =
      stats.n1 * is.nik / theta * local_per_lookup +
      stats.n1 * spre_eff / config_.network_bw_bytes_per_sec;
  // Index locality chunks each partition's grouped file across its replica
  // hosts (finer tasks than plain re-partitioning): ~3 extra wave quanta
  // of task startups.
  const double granularity_overhead =
      3.0 * config_.task_startup_sec * config_.map_slots_per_node;
  // Reuse gate, mirroring RepartitionCost: a live co-partitioned artifact
  // replaces shuffle + store + extra job with resolve + the lookup leg
  // (whose data-move term already prices reading the artifact at the index
  // hosts). The chunked-task granularity overhead remains — the re-split
  // across replica hosts happens on the adopted data too.
  if (is.artifact_idxloc && spre_eff == stats.spre) {
    return config_.reuse_resolve_sec + lookup_cost + granularity_overhead;
  }
  return ShuffleCost(stats, spre_eff) +
         ResultCost(stats, position, spre_eff) + lookup_cost +
         ExtraJobSeconds() + ExtraPassCost(stats, spre_eff) +
         granularity_overhead;
}

double CostModel::Cost(Strategy strategy, const OperatorStats& stats, int j,
                       OperatorPosition position, double spre_eff) const {
  switch (strategy) {
    case Strategy::kBaseline:
      return BaselineCost(stats, j);
    case Strategy::kLookupCache:
      return CacheCost(stats, j);
    case Strategy::kRepartition:
      return RepartitionCost(stats, j, position, spre_eff);
    case Strategy::kIndexLocality:
      return IndexLocalityCost(stats, j, position, spre_eff);
    case Strategy::kSaltedRepartition:
      return SaltedRepartitionCost(stats, j, position, spre_eff);
  }
  return 0;
}

double CostModel::OperatorPlanCost(const OperatorPlan& plan,
                                   const OperatorStats& stats,
                                   OperatorPosition position) const {
  double spre_eff = stats.spre;
  double total = 0;
  for (const IndexChoice& choice : plan.order) {
    total += Cost(choice.strategy, stats, choice.index, position, spre_eff);
    if (ValidIndex(stats, choice.index)) {
      const IndexStats& is = stats.index[choice.index];
      spre_eff += is.nik * is.siv;
    }
  }
  return total;
}

}  // namespace efind
