// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The chained-function stages that EFind's plan implementer splices into
// MapReduce jobs (paper Fig. 6-7). The runner composes them as follows:
//
//   baseline/cache:  PreProcessStage -> InlineLookupStage -> PostProcessStage
//   repartitioning:  ... -> ShuffleKeyStage | GroupReducer | (job boundary)
//                    -> GroupedLookupStage(remote) -> ... -> PostProcessStage
//   index locality:  same, with the shuffle partitioned by the index's own
//                    scheme, the next job's tasks placed on index hosts
//                    (input fetched remotely), and local lookups.
//
// Lookups: each lookup stage has one driver, which serves every lookup site
// (index) by its accessor's capability. A serial site resolves a lookup at
// once and charges it at `Process` time. A batched site (DESIGN.md §13)
// submits it to the task's pending-lookup buffer, which both stages share.
// The buffer's one flush charges the lookups in submit order, charges the
// device once per site, and emits the records buffered behind them in
// arrival order.
//
// Threading: one stage instance serves every task of a phase and the
// phase's tasks run concurrently (see stage.h). Stages therefore keep
// per-task state in the TaskContext, feed statistics through per-task
// collectors (`OperatorRuntime::TaskLocal`), and only keep per-node
// structures in members: lookup caches and live circuit breakers. A lookup
// stage that touches one of them declares `holds_node_state`, so the
// engine serializes each node's tasks on one strand; every other stage
// runs task by task. Counter names are interned once at construction
// (`CounterHandle`) so per-record increments build no strings.

#ifndef EFIND_EFIND_STAGES_H_
#define EFIND_EFIND_STAGES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/lru_cache.h"
#include "common/partition_scheme.h"
#include "efind/failover.h"
#include "efind/index_operator.h"
#include "efind/plan.h"
#include "efind/statistics.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/stage.h"

namespace efind {

namespace obs {
class ObsSession;
}  // namespace obs

/// Result list of one index lookup, cached per node.
using CachedResult = std::vector<IndexValue>;

/// The per-node lookup caches of one (operator, index) pair. Tasks running
/// on the same simulated node share a cache (paper §3.2 reduces redundancy
/// "at a single machine node").
class NodeCaches {
 public:
  NodeCaches(int num_nodes, size_t capacity);
  LruCache<std::string, CachedResult>& ForNode(int node);
  /// Aggregate miss ratio across nodes.
  double MissRatio() const;

 private:
  std::vector<std::unique_ptr<LruCache<std::string, CachedResult>>> caches_;
};

/// Runs `IndexOperator::PreProcess`, attaches the extracted key lists to the
/// record, and feeds the operator's statistics collector.
class PreProcessStage : public RecordStage {
 public:
  PreProcessStage(std::shared_ptr<IndexOperator> op, OperatorRuntime* runtime,
                  std::string counter_prefix);

  std::string name() const override;
  void BeginTask(TaskContext* ctx) override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  OperatorRuntime* runtime_;
  std::string counter_prefix_;
  CounterHandle pre_inputs_;
};

/// Interned resilience counter handles of one lookup site (stage × index),
/// shared by the inline and grouped lookup stages (DESIGN.md §10). The
/// `efind.integrity.*` names are run-global: `injected == detected` by
/// construction (every injected corruption is caught by the end-to-end
/// checksum), and `efind.integrity.served_corrupt` is incremented nowhere —
/// the benches assert it stays 0.
struct ResilienceCounters {
  explicit ResilienceCounters(const std::string& base)
      : hedges(base + ".hedges"),
        hedge_wins(base + ".hedge_wins"),
        flaky_retries(base + ".flaky_retries"),
        corrupt_detected(base + ".corrupt_detected"),
        breaker_transitions(base + ".breaker_transitions"),
        breaker_short_circuits(base + ".breaker_short_circuits"),
        integrity_injected("efind.integrity.injected"),
        integrity_detected("efind.integrity.detected") {}

  CounterHandle hedges;
  CounterHandle hedge_wins;
  CounterHandle flaky_retries;
  CounterHandle corrupt_detected;
  CounterHandle breaker_transitions;
  CounterHandle breaker_short_circuits;
  CounterHandle integrity_injected;
  CounterHandle integrity_detected;
};

/// Interned run-global counter handles of the packed-store batched lookups
/// (DESIGN.md §13): distinct device page reads, reads saved by same-page
/// coalescing, flushes issued, and lookups served through a batch.
struct StoreCounters {
  StoreCounters()
      : page_reads("efind.store.page_reads"),
        coalesced("efind.store.coalesced_page_reads"),
        batches("efind.store.batches"),
        batched_lookups("efind.store.batched_lookups") {}

  CounterHandle page_reads;
  CounterHandle coalesced;
  CounterHandle batches;
  CounterHandle batched_lookups;
};

/// One lookup site — an index served by a lookup stage — with everything
/// its lookup charges need besides the lookup itself: the accessor and its
/// batching capability, the interned counters, the circuit breakers, the
/// latency histograms and trace span, and the stage's cost, failover and
/// obs context. Each lookup stage has one driver; it resolves a serial
/// site's lookups at once and submits a batched site's to the task's shared
/// pending-lookup buffer, whose one flush serves them. Either way every
/// performed lookup is charged through `Charge`, which prices it with one
/// `LookupFailover::Resilient` call (the paper's per-lookup cost, Eqs 1-4,
/// plus any fault excess), and observed through `Observe`.
struct LookupSite {
  /// `base` is the site's counter prefix ("<operator>.idx<j>"); the latency
  /// histogram is `base + latency_suffix`. The site copies `failover`; a
  /// null one becomes an inactive charger. A non-null `failover` also
  /// builds the site's breaker bank (when enabled and the accessor has a
  /// partition scheme).
  LookupSite(IndexAccessor* accessor, int index, const std::string& base,
             const char* latency_suffix, const ClusterConfig* config,
             const LookupFailover* failover, obs::ObsSession* session);

  /// Charges one performed lookup of `ik` that returned `result` (empty
  /// when `error`, a non-NotFound failure, which is counted) through
  /// `failover.Resilient`: the index service time, plus the remote
  /// overhead and the network transfer of key and result unless `local`
  /// (index locality, Eq. 4), plus retries, failover and resilience
  /// excess while faults are configured. Then records the charge's
  /// resilience outcome, counts the lookup and feeds `stats` (may be
  /// null).
  void Charge(const std::string& ik, const CachedResult& result, bool error,
              bool local, TaskContext* ctx, OperatorTaskStats* stats) const;
  /// A serial site's lookup: one blocking accessor call, then `Charge`.
  CachedResult Lookup(const std::string& ik, bool local, TaskContext* ctx,
                      OperatorTaskStats* stats) const;
  /// Observes one lookup charged since `t0` into the latency histogram and,
  /// when `lookup_span` is set, traces it as one span.
  void Observe(double t0, bool local, TaskContext* ctx) const;

  IndexAccessor* accessor;
  /// The accessor's batching capability (DESIGN.md §13); null for
  /// accessors served one blocking lookup at a time.
  const BatchedLookupIndex* batched;
  int index;
  const ClusterConfig* config;
  LookupFailover failover;
  obs::ObsSession* obs;
  CounterHandle lookups;
  CounterHandle lookup_errors;
  CounterHandle lookup_failovers;
  ResilienceCounters resilience;
  /// Circuit-breaker cells (null when the breaker is off or the accessor
  /// has no partition scheme). They are live, i.e. read and written by
  /// `Charge`, only while `failover.active()`; a stage with live breakers
  /// declares `holds_node_state`, so a node's tasks serialize on one strand
  /// and a breaker cell, being (node, partition)-local, sees them in task
  /// order.
  std::unique_ptr<BreakerBank> breakers;
  /// Interned lookup-latency and injected-latency (latency spikes added by
  /// the fault model) histogram ids; -1 when observability is off.
  int latency_hist = -1;
  int injected_hist = -1;
  /// Name of the span `Observe` traces per lookup (null: no span).
  const char* lookup_span = nullptr;
  /// The page leg of each batched flush.
  StoreCounters store;
};

/// Which indices an `InlineLookupStage` serves, and how.
struct InlineIndexTask {
  int index = 0;
  bool use_cache = false;
};

/// Performs baseline / lookup-cache index accesses in the task that holds
/// the record (no extra job). Remote-lookup time `(Sik+Siv)/BW + T_j` is
/// charged per actual lookup; cache probes charge T_cache.
///
/// One per-key flow serves every task slot: probe the slot's node cache
/// (on a batched slot, a key already pending rides its ticket as a hit),
/// count the miss or log a shadow-cache probe, then resolve. A serial slot
/// looks the key up at once; a slot whose accessor implements
/// `BatchedLookupIndex` submits it to the task's pending-lookup buffer,
/// which holds the record until its flush resolves it (DESIGN.md §13).
/// Records leave in arrival order either way.
class InlineLookupStage : public RecordStage {
 public:
  /// `failover` (optional, borrowed) activates the failure-aware charge
  /// path: down/degraded index hosts cost retries, backoff and replica
  /// failover time (DESIGN.md §7). Null or inactive charges the healthy
  /// cost. `session` (optional, borrowed) attaches observability:
  /// per-record lookup-batch spans, failover instants, a per-task cache
  /// snapshot instant, and lookup latency histograms (DESIGN.md §8); null
  /// records nothing.
  InlineLookupStage(std::shared_ptr<IndexOperator> op,
                    std::vector<InlineIndexTask> tasks,
                    OperatorRuntime* runtime, const ClusterConfig* config,
                    size_t cache_capacity, std::string counter_prefix,
                    const LookupFailover* failover = nullptr,
                    obs::ObsSession* session = nullptr);

  std::string name() const override;
  /// True when a slot has node caches or live breakers.
  bool holds_node_state() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;
  /// Flushes the batched slots' remaining buffered lookups, then takes the
  /// per-task cache snapshot.
  void EndTask(TaskContext* ctx, Emitter* out) override;

 private:
  // Per-task state: the pending-lookup buffer and the cached slots' keys
  // in flight. `Flush` serves it and Put()s the results into the caches.
  struct TaskState;
  void Flush(TaskState* ts, TaskContext* ctx, Emitter* out,
             OperatorTaskStats* stats);

  std::shared_ptr<IndexOperator> op_;
  std::vector<InlineIndexTask> tasks_;
  OperatorRuntime* runtime_;
  const ClusterConfig* config_;
  obs::ObsSession* obs_;
  std::string counter_prefix_;
  // The lookup site of tasks_[t]'s index, parallel to tasks_.
  std::vector<LookupSite> sites_;
  // Interned cache-hit counter handles, parallel to tasks_.
  std::vector<CounterHandle> cache_hits_;
  // Interned per-node cache hit/miss gauge ids: [t][node], only for cached
  // tasks with observability on (empty vectors otherwise). Gauges take the
  // last write in task-index absorb order — the node cache's cumulative
  // state after its final task, i.e. the run's end-of-job totals.
  std::vector<std::vector<int>> cache_hit_gauges_;
  std::vector<std::vector<int>> cache_miss_gauges_;
  // caches_[t] serves tasks_[t] when tasks_[t].use_cache.
  std::vector<std::unique_ptr<NodeCaches>> caches_;
};

/// Runs `IndexOperator::PostProcess` on the record plus its attached lookup
/// results, strips the attachment, and meters output sizes.
class PostProcessStage : public RecordStage {
 public:
  PostProcessStage(std::shared_ptr<IndexOperator> op,
                   OperatorRuntime* runtime, std::string counter_prefix);

  std::string name() const override;
  void BeginTask(TaskContext* ctx) override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  OperatorRuntime* runtime_;
  std::string counter_prefix_;
};

/// Rekeys records by their (single) lookup key for index j, saving the
/// original key in the attachment, so the shuffle groups equal lookup keys
/// together (paper §3.3). Records that extracted a number of keys other
/// than one pass through unchanged (they skip the re-partitioned access and
/// resolve inline later; the optimizer only picks re-partitioning when every
/// record extracts exactly one key).
class ShuffleKeyStage : public RecordStage {
 public:
  ShuffleKeyStage(std::shared_ptr<IndexOperator> op, int index,
                  std::string counter_prefix);

  std::string name() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  int index_;
  std::string counter_prefix_;
  CounterHandle shuffle_skipped_;
};

/// The shuffle job's reduce: passes records through in grouped order so the
/// downstream `GroupedLookupStage` sees equal lookup keys contiguously. A
/// pass-through reducer, so the engine streams the groups without calling
/// `Reduce`.
class GroupReducer : public Reducer {
 public:
  std::string name() const override { return "efind.group"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override;
  bool pass_through() const override { return true; }
};

/// Performs one lookup per *run* of equal lookup keys (records arrive
/// grouped after the shuffle job) and restores the original record keys.
/// One driver serves both accessor kinds: a run reuses the in-flight
/// ticket or the last resolved key's result, a new key is looked up at once
/// on a serial accessor and submitted to the task's pending-lookup buffer
/// on a batched one (DESIGN.md §13). Records that skipped the shuffle have
/// their keys resolved remotely, and every performed lookup is traced as one
/// `grouped_lookup` span.
///
/// `local` selects the index-locality cost model: lookups charge T_j only,
/// because the task was scheduled on a node hosting the co-partitioned
/// index partition; the input-movement cost `N1*Spre/BW` is charged by the
/// job's remote-input flag. Remote mode charges `(Sik+Siv)/BW + T_j`.
class GroupedLookupStage : public RecordStage {
 public:
  /// `failover` as in `InlineLookupStage`; in `local` mode a down or
  /// non-hosting task node forces the lookup off-node through the remote
  /// failover path (graceful index-locality degradation). `session` as in
  /// `InlineLookupStage` (lookup spans, failover instants, latency
  /// histogram).
  GroupedLookupStage(std::shared_ptr<IndexOperator> op, int index, bool local,
                     OperatorRuntime* runtime, const ClusterConfig* config,
                     std::string counter_prefix,
                     const LookupFailover* failover = nullptr,
                     obs::ObsSession* session = nullptr);

  std::string name() const override;
  /// True only when the site's breakers are live: the grouped stage has no
  /// cache.
  bool holds_node_state() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;
  /// Flushes the remaining buffered lookups (none on a serial accessor).
  void EndTask(TaskContext* ctx, Emitter* out) override;

 private:
  // Per-task state: the pending-lookup buffer and the memo tiers. `Flush`
  // serves the buffer and moves the in-flight run into the memo.
  struct TaskState;
  void Flush(TaskState* ts, TaskContext* ctx, Emitter* out,
             OperatorTaskStats* stats);

  std::shared_ptr<IndexOperator> op_;
  int index_;
  bool local_;
  OperatorRuntime* runtime_;
  const ClusterConfig* config_;
  std::string counter_prefix_;
  LookupSite site_;
  CounterHandle lookup_reuses_;
};

/// Meters the original Map function's output bytes into the head operators'
/// statistics (the Smap term of Table 1). Pass-through otherwise.
class MapMeterStage : public RecordStage {
 public:
  explicit MapMeterStage(std::vector<OperatorRuntime*> head_runtimes);

  std::string name() const override { return "efind.map_meter"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::vector<OperatorRuntime*> head_runtimes_;
};

/// MapReduce partitioner delegating to an index's partition scheme, so the
/// shuffle output is co-partitioned with the index (paper §3.4).
class SchemePartitioner : public Partitioner {
 public:
  explicit SchemePartitioner(const PartitionScheme* scheme)
      : scheme_(scheme) {}

  std::string name() const override { return "index_scheme"; }
  int Partition(std::string_view key, int num_partitions) const override {
    const int p = scheme_->PartitionOf(key);
    return num_partitions > 0 ? p % num_partitions : 0;
  }

 private:
  const PartitionScheme* scheme_;
};

}  // namespace efind

#endif  // EFIND_EFIND_STAGES_H_
