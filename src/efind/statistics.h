// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_STATISTICS_H_
#define EFIND_EFIND_STATISTICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fm_sketch.h"
#include "common/lru_cache.h"
#include "common/running_stats.h"
#include "mapreduce/skew_detector.h"
#include "mapreduce/stage.h"

namespace efind {

class OperatorRuntime;

/// Table-1 statistics for one index j of an operator.
struct IndexStats {
  /// Nik_j: average lookup keys per operator input record.
  double nik = 0.0;
  /// Sik_j: average key size in bytes.
  double sik = 0.0;
  /// Siv_j: average lookup result size per key, in bytes.
  double siv = 0.0;
  /// T_j: average index service time per lookup, in seconds.
  double tj = 0.0;
  /// Theta: average duplicates per distinct lookup key, cluster-wide
  /// (estimated via OR-merged Flajolet-Martin sketches, paper §4.2).
  double theta = 1.0;
  /// R: lookup-cache miss ratio (real cache when caching, else a shadow
  /// key-only cache sampling the lookup stream, paper §4.2).
  double miss_ratio = 1.0;
  /// Every observed record extracted exactly one key for this index; the
  /// executable re-partitioning path requires this (DESIGN.md §3).
  bool repartitionable = true;

  // Key-skew observations (DESIGN.md §12), from the SkewDetector fed
  // alongside the FM sketch during the map sweep.
  /// Share of the lookup-key stream held by the single hottest key.
  double max_key_share = 0.0;
  /// Hash64 of the keys the detector flagged as heavy hitters (share >=
  /// the hot-key threshold), hottest first; empty when the stream is
  /// benign. The salted re-partitioning path spreads exactly these keys.
  std::vector<uint64_t> hot_keys;
  /// Salt fanout the runtime would spread hot keys across (stamped from
  /// EFindOptions so the cost model prices what execution would do).
  int salt_fanout = 0;

  // Host-availability observations (failure-aware execution, DESIGN.md §7).
  // Fed by LookupFailover charges; deliberately separate from the clean
  // `tj` so Θ/R/T_j estimates are identical with and without faults.
  /// Average extra seconds per lookup caused by down/degraded hosts
  /// (retries, backoff waits, failover round trips, degraded service).
  double avail_excess = 0.0;
  /// Fraction of lookups that found their partition's primary host down.
  double down_share = 0.0;
  /// Fraction of lookups served by replica failover (or forced off-node).
  double failover_share = 0.0;

  // Service-level resilience observations (DESIGN.md §10). Same fault-clean
  // contract: the time cost of hedges/retries/re-fetches is already inside
  // `avail_excess`; these shares describe how often each mechanism fired.
  /// Fraction of lookups that issued a hedged backup request.
  double hedge_share = 0.0;
  /// Fraction of lookups whose hedged backup beat the primary.
  double hedge_win_share = 0.0;
  /// Fraction of lookups that rode out at least one transient error.
  double flaky_share = 0.0;
  /// Fraction of lookups with at least one detected payload corruption.
  double corrupt_share = 0.0;
  /// Fraction of lookups short-circuited past their primary by an open
  /// circuit breaker; past 50% the index-locality premise is gone
  /// (FeasibleStrategies drops the strategy, like `down_share`).
  double breaker_share = 0.0;

  /// Average distinct pages one lookup touches on a storage-backed index
  /// (0 for in-memory indices). Feeds the page-read cost term
  /// (`CostModel::PageReadCost`) so batch depth shows up in plan costs.
  double pages_per_lookup = 0.0;

  // Capabilities copied from the accessor at planning time.
  bool idempotent = true;
  bool has_partition_scheme = false;
  /// Per-call marshalling overhead of remote access (accessor property).
  double remote_overhead = 0.0;

  // Cross-job reuse annotations (DESIGN.md §9), set at planning time when
  // the materialized store holds a live, reachable artifact for this
  // index's first shuffle. The cost model then replaces Eq. 3/4's shuffle
  // term with the resolve + retrieval cost.
  bool artifact_repart = false;
  bool artifact_idxloc = false;
};

/// Table-1 statistics for one `IndexOperator` instance.
struct OperatorStats {
  /// N1: average operator input records per machine node.
  double n1 = 0.0;
  /// S1: average input record size.
  double s1 = 0.0;
  /// Spre: average preProcess output size per input record (record after
  /// preProcess plus extracted keys).
  double spre = 0.0;
  /// Spost: average postProcess output size per input record.
  double spost = 0.0;
  /// Smap: average original-Map output size per operator input record
  /// (head operators only; 0 when unknown).
  double smap = 0.0;
  /// Per-index statistics.
  std::vector<IndexStats> index;

  /// Tasks that contributed samples; the variance gate needs >= 2.
  size_t tasks_sampled = 0;
  /// max over tracked statistics of stddev/mean across task samples
  /// (Eq. 5); the adaptive optimizer re-plans only when this is below its
  /// threshold.
  double max_cov = 0.0;
  /// False until any samples have been collected.
  bool valid = false;

  /// Sidx per input record after accessing the indices listed in `order`
  /// (prefix of an access order): spre + sum nik_j * siv_j.
  double SidxAfter(const std::vector<int>& accessed) const;
};

/// The per-index counters behind Table 1, for one index of one operator:
/// the lookup-key stream (counts, bytes, the FM sketch for Theta and the
/// skew detector's exact key counts), the actual lookups and their cache
/// probes, and the fault/resilience/page observations. A task fills its own
/// tally; the runtime `Merge`s every task's tally in task-index order.
struct IndexTally {
  uint64_t keys = 0;
  uint64_t key_bytes = 0;
  uint64_t lookups = 0;
  uint64_t lookup_result_bytes = 0;
  double service_time = 0.0;
  uint64_t cache_probes = 0;
  uint64_t cache_misses = 0;
  double avail_excess_sec = 0.0;
  uint64_t down_lookups = 0;
  uint64_t failovers = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t flaky_lookups = 0;
  uint64_t corrupt_lookups = 0;
  uint64_t breaker_short_circuits = 0;
  uint64_t uncoalesced_page_reads = 0;
  FmSketch sketch{64};
  SkewDetector skew;
  /// Some record extracted other than exactly one key for this index.
  bool multi_key_seen = false;

  /// Folds `other` (one task's tally) into this one: sums, the OR-merged
  /// sketch and the merged key counts.
  void Merge(const IndexTally& other);
};

/// One task's private statistics accumulator for an operator. Stages obtain
/// it via `OperatorRuntime::TaskLocal(ctx)`, and every method writes only
/// this object, so concurrent tasks never contend; the execution engine
/// folds it back into the runtime (`AbsorbTask`) in task-index order when
/// the task's state bag merges.
class OperatorTaskStats {
 public:
  explicit OperatorTaskStats(OperatorRuntime* runtime);

  /// One record through preProcess: its input size, its post-pre output
  /// size (record + keys), and per-index extracted keys.
  void PreRecord(uint64_t input_bytes, uint64_t pre_output_bytes,
                 const std::vector<std::vector<std::string>>& keys);
  /// An actual lookup of index `j` (cache miss or no cache) returning
  /// `result_bytes` with service time `service_sec`. Key bytes are counted
  /// at extraction time (`PreRecord`).
  void LookupPerformed(int j, uint64_t result_bytes, double service_sec);
  /// Host-availability outcome of an actual lookup of index `j` (the
  /// failure-aware runtime's extra time and down/failover flags). Reported
  /// separately from `LookupPerformed` so the clean statistics are
  /// untouched by faults.
  void LookupAvailability(int j, double excess_sec, bool primary_down,
                          bool failed_over);
  /// Service-level resilience outcome of an actual lookup of index `j`
  /// (hedge issued/won, transient errors ridden out, corruptions detected,
  /// breaker short-circuit). Time cost arrives via `LookupAvailability`'s
  /// excess; this only counts mechanism firings.
  void LookupResilience(int j, int hedges, bool hedge_won, int flaky_errors,
                        int corrupt_detected, bool breaker_short_circuit);
  /// Page accounting of one flush against a storage-backed index `j`:
  /// `uncoalesced_pages`, the pages its lookups would read one at a time
  /// (the Nipl_j statistic behind `pages_per_lookup`).
  void LookupPages(int j, uint64_t uncoalesced_pages);
  /// A probe of the real lookup cache for index `j`.
  void CacheProbe(int j, bool miss);
  /// A probe of the shadow (key-only) cache on `node` for index `j`: logged
  /// here, replayed into the runtime's shadow LRU by `AbsorbTask`.
  void ShadowProbe(int j, int node, const std::string& key);
  /// One postProcess output record.
  void PostRecord(uint64_t output_bytes);
  /// Original-Map output metering (Smap term).
  void MapOutput(uint64_t bytes);

 private:
  friend class OperatorRuntime;

  uint64_t inputs_ = 0;
  uint64_t input_bytes_ = 0;
  uint64_t pre_bytes_ = 0;
  uint64_t post_records_ = 0;
  uint64_t post_bytes_ = 0;
  uint64_t map_output_bytes_ = 0;
  std::vector<IndexTally> index_;
  /// The task's shadow probes in issue order; their keys are concatenated
  /// in `shadow_keys_`, so a probe costs no allocation of its own.
  struct ShadowProbeEntry {
    int j;
    int node;
    size_t key_size;
  };
  std::vector<ShadowProbeEntry> shadow_probes_;
  std::string shadow_keys_;
};

/// Online statistics collector for one operator instance, mirroring the
/// paper's counter-based collection (§4.2): every task feeds a private
/// `OperatorTaskStats` (per-task counters, FM sketch and skew counts), and
/// `AbsorbTask` folds each into the shared totals in task-index order —
/// one sample per task for the variance gate, OR-merged sketches for
/// Theta, and the task's shadow probes replayed into a per-node shadow
/// cache for R — so results are bit-identical at any thread count.
class OperatorRuntime {
 public:
  /// `num_indices` accessors; `num_nodes` for per-node shadow caches of
  /// `cache_capacity` entries. `hot_key_threshold` is the minimum stream
  /// share for a key to be flagged hot; `salt_fanout` is stamped into the
  /// computed stats so the cost model prices the salted spread the runtime
  /// would actually use (DESIGN.md §12).
  OperatorRuntime(int num_indices, int num_nodes, size_t cache_capacity,
                  double hot_key_threshold = 0.05, int salt_fanout = 8);

  /// Returns this task's private collector, creating and registering it in
  /// `ctx`'s state bag on first use (with an AbsorbTask merge closure the
  /// engine runs in task-index order).
  OperatorTaskStats* TaskLocal(TaskContext* ctx);
  /// Folds one task's collected statistics into the shared totals: a task
  /// with preProcess records adds one N1/S1/Spre/Nik sample, one with
  /// postProcess records one Spost sample, and its shadow probes are
  /// replayed, in issue order, into the per-node shadow caches. Restricted
  /// to one node, task-index order is the order that node ran its tasks.
  void AbsorbTask(const OperatorTaskStats& task);

  /// Total operator input records observed so far (pre-side).
  uint64_t total_inputs() const { return total_inputs_; }

  /// Builds Table-1 statistics. `extrapolation` scales observed input
  /// counts to the whole job (total tasks / sampled tasks) when only the
  /// first wave has run; `num_nodes` converts totals to per-machine N1.
  OperatorStats Compute(int num_nodes, double extrapolation) const;

 private:
  friend class OperatorTaskStats;

  int num_indices_;
  int num_nodes_;
  size_t cache_capacity_;
  double hot_key_threshold_;
  int salt_fanout_;

  uint64_t total_inputs_ = 0;
  uint64_t total_input_bytes_ = 0;
  uint64_t total_pre_bytes_ = 0;
  uint64_t total_post_records_ = 0;
  uint64_t total_post_bytes_ = 0;
  uint64_t map_output_bytes_ = 0;
  size_t pre_tasks_ = 0;
  size_t post_tasks_ = 0;

  RunningStats inputs_samples_;
  RunningStats s1_samples_;
  RunningStats spre_samples_;
  RunningStats spost_samples_;

  std::vector<IndexTally> index_;
  /// Per-task Nik_j samples, parallel to `index_`.
  std::vector<RunningStats> nik_samples_;
  // shadow_caches_[node * num_indices_ + j]; key-only LRU, value unused,
  // created on first probe. Only `AbsorbTask` touches them.
  std::vector<std::unique_ptr<LruCache<std::string, char>>> shadow_caches_;
};

}  // namespace efind

#endif  // EFIND_EFIND_STATISTICS_H_
