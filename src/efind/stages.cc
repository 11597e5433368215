#include "efind/stages.h"

#include <cstdio>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"
#include "store/lookup_queue.h"

namespace efind {

namespace {

uint64_t ResultBytes(const CachedResult& values) {
  uint64_t n = 0;
  for (const auto& v : values) n += v.size_bytes();
  return n;
}

std::string RatioStr(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// Copy-on-write helper for the shared attachment. When this record holds
// the only reference (the common case: PreProcess creates a fresh
// attachment, a batch-form split decodes one per materialized record, and
// downstream stages hand the record along one at a time), the attachment
// is mutated in place; a genuinely shared one (a record copied from a
// borrowed record-form split) is deep-copied.
// The uniqueness check is race-free: holding the sole reference means no
// other thread has a handle to copy from.
std::shared_ptr<RecordAttachment> MutableAttachment(Record* record) {
  if (record->attachment) {
    if (record->attachment.use_count() == 1) {
      return std::const_pointer_cast<RecordAttachment>(
          std::move(record->attachment));
    }
    return std::make_shared<RecordAttachment>(*record->attachment);
  }
  return std::make_shared<RecordAttachment>();
}

// Post-charge bookkeeping of every lookup charge: failover/resilience
// counters, the fault-clean statistics channel, obs instants
// (lookup_failover, lookup_hedge, integrity_retry, breaker_transition), and
// the injected-latency histogram (DESIGN.md §10). A healthy charge records
// nothing but zero excess.
void RecordChargeOutcome(const LookupCharge& charge, const LookupSite& site,
                         TaskContext* ctx, OperatorTaskStats* stats) {
  const int j = site.index;
  const ResilienceCounters& rc = site.resilience;
  Counters* counters = ctx->counters();
  if (charge.failed_over) counters->Increment(site.lookup_failovers);
  if (charge.hedges > 0) {
    counters->Increment(rc.hedges, charge.hedges);
    if (charge.hedge_won) counters->Increment(rc.hedge_wins);
  }
  if (charge.flaky_errors > 0) {
    counters->Increment(rc.flaky_retries, charge.flaky_errors);
  }
  if (charge.corrupt_detected > 0) {
    counters->Increment(rc.corrupt_detected, charge.corrupt_detected);
    counters->Increment(rc.integrity_injected, charge.corrupt_detected);
    counters->Increment(rc.integrity_detected, charge.corrupt_detected);
  }
  if (charge.breaker_short_circuit) {
    counters->Increment(rc.breaker_short_circuits);
  }
  if (charge.breaker_transition_to != 0) {
    counters->Increment(rc.breaker_transitions);
  }
  if (stats != nullptr) {
    stats->LookupAvailability(j, charge.excess_sec, charge.primary_down,
                              charge.failed_over);
    stats->LookupResilience(j, charge.hedges, charge.hedge_won,
                            charge.flaky_errors, charge.corrupt_detected,
                            charge.breaker_short_circuit);
  }
  if (site.obs == nullptr) return;
  if (charge.failed_over || charge.hedges > 0 || charge.corrupt_detected > 0 ||
      charge.breaker_transition_to != 0) {
    obs::TaskTrace* tt = site.obs->trace().TaskLocal(ctx);
    if (charge.failed_over) {
      tt->Instant("lookup_failover", "fault", ctx->sim_time(),
                  {{"index", std::to_string(j)},
                   {"attempts", std::to_string(charge.attempts)}});
    }
    if (charge.hedges > 0) {
      tt->Instant("lookup_hedge", "resilience", ctx->sim_time(),
                  {{"index", std::to_string(j)},
                   {"won", charge.hedge_won ? "1" : "0"}});
    }
    if (charge.corrupt_detected > 0) {
      tt->Instant("integrity_retry", "resilience", ctx->sim_time(),
                  {{"kind", "lookup"},
                   {"attempts", std::to_string(charge.corrupt_detected)}});
    }
    if (charge.breaker_transition_to != 0) {
      tt->Instant("breaker_transition", "resilience", ctx->sim_time(),
                  {{"node", std::to_string(ctx->node_id())},
                   {"partition", std::to_string(charge.partition)},
                   {"from", BreakerBank::ToString(static_cast<BreakerBank::State>(
                                charge.breaker_transition_from - 1))},
                   {"to", BreakerBank::ToString(static_cast<BreakerBank::State>(
                              charge.breaker_transition_to - 1))}});
    }
  }
  if (charge.injected_latency_sec > 0.0 && site.injected_hist >= 0) {
    site.obs->metrics().TaskLocal(ctx)->Observe(site.injected_hist,
                                                charge.injected_latency_sec);
  }
}

// Device-side accounting of one batched-store flush of `site` (DESIGN.md
// §13): the whole batch's distinct pages are charged as overlapped device
// waves (`PageBatchSeconds`), the run-global `efind.store.*` counters record
// what coalescing saved, and the pages feed the Nipl_j statistic behind the
// cost model's page-read term. Per-lookup service/network charges go
// through `LookupSite::Charge` in submit order — this helper only owns the
// shared page leg.
void ChargePageBatch(const LookupSite& site, uint64_t distinct,
                     uint64_t uncoalesced, uint64_t lookups, TaskContext* ctx,
                     OperatorTaskStats* stats) {
  const double t0 = ctx->sim_time();
  ctx->AddSimTime(site.config->PageBatchSeconds(distinct));
  Counters* counters = ctx->counters();
  const StoreCounters& sc = site.store;
  counters->Increment(sc.batches);
  counters->Increment(sc.batched_lookups, static_cast<double>(lookups));
  if (distinct > 0) {
    counters->Increment(sc.page_reads, static_cast<double>(distinct));
  }
  if (uncoalesced > distinct) {
    counters->Increment(sc.coalesced,
                        static_cast<double>(uncoalesced - distinct));
  }
  if (stats != nullptr) stats->LookupPages(site.index, uncoalesced);
  if (site.obs != nullptr && distinct > 0) {
    site.obs->trace().TaskLocal(ctx)->Span(
        "page_read", "store", t0, ctx->sim_time() - t0,
        {{"pages", std::to_string(distinct)},
         {"coalesced", std::to_string(uncoalesced - distinct)},
         {"lookups", std::to_string(lookups)}});
  }
}

// A breaker bank for one lookup site, or null when the breaker is disabled
// or the accessor exposes no partition scheme to route around.
std::unique_ptr<BreakerBank> MakeBreakers(const ClusterConfig* config,
                                          const IndexAccessor* accessor) {
  if (config == nullptr || accessor == nullptr ||
      config->breaker_failure_threshold <= 0 ||
      accessor->partition_scheme() == nullptr) {
    return nullptr;
  }
  return std::make_unique<BreakerBank>(
      config->num_nodes, accessor->partition_scheme()->num_partitions());
}

// Whether `site`'s breaker cells are read and written by its charges.
bool BreakersLive(const LookupSite& site) {
  return site.breakers != nullptr && site.failover.active();
}

}  // namespace

// ---------------------------------------------------------------- caches --

NodeCaches::NodeCaches(int num_nodes, size_t capacity) {
  if (num_nodes <= 0) num_nodes = 1;
  caches_.reserve(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    caches_.push_back(
        std::make_unique<LruCache<std::string, CachedResult>>(capacity));
  }
}

LruCache<std::string, CachedResult>& NodeCaches::ForNode(int node) {
  if (node < 0 || node >= static_cast<int>(caches_.size())) node = 0;
  return *caches_[node];
}

double NodeCaches::MissRatio() const {
  uint64_t probes = 0, misses = 0;
  for (const auto& c : caches_) {
    probes += c->probes();
    misses += c->misses();
  }
  return probes == 0 ? 1.0
                     : static_cast<double>(misses) /
                           static_cast<double>(probes);
}

// ------------------------------------------------------------ preprocess --

PreProcessStage::PreProcessStage(std::shared_ptr<IndexOperator> op,
                                 OperatorRuntime* runtime,
                                 std::string counter_prefix)
    : op_(std::move(op)),
      runtime_(runtime),
      counter_prefix_(std::move(counter_prefix)),
      pre_inputs_(counter_prefix_ + ".pre.inputs") {}

std::string PreProcessStage::name() const {
  return counter_prefix_ + ".pre";
}

void PreProcessStage::BeginTask(TaskContext* ctx) {
  // Register this task's collector up front so its merge runs even for
  // tasks that see no records.
  if (runtime_ != nullptr) runtime_->TaskLocal(ctx);
}

void PreProcessStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  const uint64_t input_bytes = record.size_bytes();
  IndexKeyLists keys(op_->num_indices());
  op_->PreProcess(&record, &keys);

  auto attachment = MutableAttachment(&record);
  attachment->keys = std::move(keys);
  attachment->results.assign(op_->num_indices(), {});
  for (int j = 0; j < op_->num_indices(); ++j) {
    attachment->results[j].resize(attachment->keys[j].size());
  }
  record.attachment = std::move(attachment);

  if (runtime_ != nullptr) {
    runtime_->TaskLocal(ctx)->PreRecord(input_bytes, record.size_bytes(),
                                        record.attachment->keys);
  }
  ctx->counters()->Increment(pre_inputs_);
  out->Emit(std::move(record));
}

// ----------------------------------------------------------- lookup site --

LookupSite::LookupSite(IndexAccessor* accessor, int index,
                       const std::string& base, const char* latency_suffix,
                       const ClusterConfig* config,
                       const LookupFailover* failover,
                       obs::ObsSession* session)
    : accessor(accessor),
      batched(dynamic_cast<const BatchedLookupIndex*>(accessor)),
      index(index),
      config(config),
      failover(failover != nullptr ? *failover
                                   : LookupFailover(config, nullptr)),
      obs(session),
      lookups(base + ".lookups"),
      lookup_errors(base + ".lookup_errors"),
      lookup_failovers(base + ".lookup_failovers"),
      resilience(base),
      breakers(failover != nullptr ? MakeBreakers(config, accessor)
                                   : nullptr) {
  // Metric handles intern here, on the orchestration thread at plan
  // expansion; hot-path updates go through integer ids only.
  if (obs != nullptr) {
    latency_hist = obs->metrics().Histogram(base + latency_suffix);
    injected_hist = obs->metrics().Histogram(base + ".latency_injected_sec");
  }
}

void LookupSite::Charge(const std::string& ik, const CachedResult& result,
                        bool error, bool local, TaskContext* ctx,
                        OperatorTaskStats* stats) const {
  if (error) ctx->counters()->Increment(lookup_errors);
  const uint64_t result_bytes = ResultBytes(result);
  const double service = accessor->ServiceSeconds(result_bytes);
  const LookupCharge charge =
      failover.Resilient(*accessor, ik, result_bytes, service, ctx->node_id(),
                         local, ctx->sim_time(), breakers.get());
  ctx->AddSimTime(charge.seconds);
  RecordChargeOutcome(charge, *this, ctx, stats);
  ctx->counters()->Increment(lookups);
  if (stats != nullptr) {
    stats->LookupPerformed(index, result_bytes, service);
  }
}

CachedResult LookupSite::Lookup(const std::string& ik, bool local,
                                TaskContext* ctx,
                                OperatorTaskStats* stats) const {
  CachedResult result;
  const Status status = accessor->Lookup(ik, &result);
  const bool error = !status.ok() && !status.IsNotFound();
  if (error) result.clear();
  Charge(ik, result, error, local, ctx, stats);
  return result;
}

void LookupSite::Observe(double t0, bool local, TaskContext* ctx) const {
  if (obs == nullptr) return;
  const double charged = ctx->sim_time() - t0;
  obs->metrics().TaskLocal(ctx)->Observe(latency_hist, charged);
  if (lookup_span != nullptr) {
    obs->trace().TaskLocal(ctx)->Span(
        lookup_span, "lookup", t0, charged,
        {{"index", std::to_string(index)},
         {"mode", local ? "local" : "remote"}});
  }
}

// ------------------------------------------------------- pending lookups --

namespace {

// One task's batched lookups in flight, shared by both lookup stages
// (DESIGN.md §13). Per lookup site (slot s of the stage's site list) it
// holds the open batch and the keys submitted to it since the last flush;
// across sites, the records buffered behind those lookups, in arrival
// order. `Flush` is the one place where completions resume.
class PendingLookups {
 public:
  // One key a buffered record waits on: the site slot, the key's position
  // in the record's key list for the site's index, and the ticket whose
  // values it takes at flush.
  struct Ref {
    size_t site = 0;
    size_t key_index = 0;
    uint64_t ticket = 0;
  };

  // `sites` (borrowed) outlives the task: it is the stage's site list.
  explicit PendingLookups(std::span<const LookupSite> sites)
      : sites_(sites), batches_(sites.size()) {}

  // Submits `ik` to slot `s`'s batch; `local` selects its charge at flush.
  uint64_t Submit(size_t s, const std::string& ik, bool local) {
    SiteBatch& sb = batches_[s];
    if (!sb.handle) sb.handle = sites_[s].batched->NewBatch();
    sb.submitted.push_back({ik, local});
    ++pending_;
    return sb.handle->Submit(ik);
  }

  // Lookups submitted since the last flush, across sites.
  size_t pending() const { return pending_; }
  bool empty() const { return buffered_.empty(); }

  // Emits `record` at once when it waits on no lookup and nothing is
  // buffered ahead of it; otherwise buffers it, so it cannot overtake.
  void Add(Record&& record, std::vector<Ref>&& refs, Emitter* out) {
    if (refs.empty() && buffered_.empty()) {
      out->Emit(std::move(record));
      return;
    }
    buffered_.push_back({std::move(record), std::move(refs)});
  }

  // Serves every pending lookup: per site in slot order, one coalesced
  // sweep whose completions are taken by ticket and charged in submit order
  // (`LookupSite::Charge`, then `Observe`, then `on_resolved(s, ticket, ik,
  // values)`), then the site's page leg. Then attaches the results to the
  // buffered records — moving each result into the last ref that takes it —
  // and emits them in arrival order.
  template <typename OnResolved>
  void Flush(TaskContext* ctx, OperatorTaskStats* stats, Emitter* out,
             OnResolved&& on_resolved);

 private:
  struct Submitted {
    std::string key;
    bool local = false;
  };
  struct SiteBatch {
    std::unique_ptr<store::BatchedLookupHandle> handle;
    // Keys in ticket (= submit) order for the current flush.
    std::vector<Submitted> submitted;
    // Ticket of submitted[0]; tickets grow monotonically across flushes.
    uint64_t ticket_base = 0;
  };
  struct PendingRecord {
    Record record;
    std::vector<Ref> refs;
  };

  std::span<const LookupSite> sites_;
  std::vector<SiteBatch> batches_;  // Parallel to sites_.
  std::vector<PendingRecord> buffered_;
  size_t pending_ = 0;
};

template <typename OnResolved>
void PendingLookups::Flush(TaskContext* ctx, OperatorTaskStats* stats,
                           Emitter* out, OnResolved&& on_resolved) {
  // Resolved values per site, indexed by (ticket - pre-flush ticket_base).
  std::vector<std::vector<CachedResult>> resolved(sites_.size());
  std::vector<uint64_t> base(sites_.size(), 0);
  for (size_t s = 0; s < sites_.size(); ++s) {
    SiteBatch& sb = batches_[s];
    base[s] = sb.ticket_base;
    const size_t n = sb.submitted.size();
    if (n == 0) continue;
    const LookupSite& site = sites_[s];
    store::FlushOutcome outcome = sb.handle->Flush();
    std::vector<store::LookupCompletion*> by_ticket(n, nullptr);
    for (auto& c : outcome.completions) {
      const uint64_t i = c.ticket - sb.ticket_base;
      if (i < n) by_ticket[i] = &c;
    }
    resolved[s].resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Submitted& sub = sb.submitted[i];
      const double t0 = ctx->sim_time();
      CachedResult values;
      bool error = false;
      if (by_ticket[i] != nullptr) {
        error = by_ticket[i]->error;
        if (!error) values = std::move(by_ticket[i]->values);
      }
      site.Charge(sub.key, values, error, sub.local, ctx, stats);
      site.Observe(t0, sub.local, ctx);
      on_resolved(s, sb.ticket_base + i, sub.key, values);
      resolved[s][i] = std::move(values);
    }
    ChargePageBatch(site, outcome.distinct_pages, outcome.uncoalesced_pages,
                    n, ctx, stats);
    sb.ticket_base += n;
    sb.submitted.clear();
  }
  // Refs still to take each resolved list: refs sharing a ticket copy it,
  // and the last one takes it by move.
  std::vector<std::vector<uint32_t>> takers(sites_.size());
  for (size_t s = 0; s < sites_.size(); ++s) {
    takers[s].assign(resolved[s].size(), 0);
  }
  for (const PendingRecord& pr : buffered_) {
    for (const Ref& ref : pr.refs) {
      const uint64_t i = ref.ticket - base[ref.site];
      if (i < takers[ref.site].size()) ++takers[ref.site][i];
    }
  }
  for (PendingRecord& pr : buffered_) {
    if (!pr.refs.empty()) {
      auto attachment = MutableAttachment(&pr.record);
      for (const Ref& ref : pr.refs) {
        const uint64_t i = ref.ticket - base[ref.site];
        if (i >= resolved[ref.site].size()) continue;
        const bool last = --takers[ref.site][i] == 0;
        const size_t j = static_cast<size_t>(sites_[ref.site].index);
        if (j >= attachment->results.size() ||
            ref.key_index >= attachment->results[j].size()) {
          continue;
        }
        CachedResult& slot = attachment->results[j][ref.key_index];
        if (last) {
          slot = std::move(resolved[ref.site][i]);
        } else {
          slot = resolved[ref.site][i];
        }
      }
      pr.record.attachment = std::move(attachment);
    }
    out->Emit(std::move(pr.record));
  }
  buffered_.clear();
  pending_ = 0;
}

}  // namespace

// --------------------------------------------------------- inline lookup --

InlineLookupStage::InlineLookupStage(std::shared_ptr<IndexOperator> op,
                                     std::vector<InlineIndexTask> tasks,
                                     OperatorRuntime* runtime,
                                     const ClusterConfig* config,
                                     size_t cache_capacity,
                                     std::string counter_prefix,
                                     const LookupFailover* failover,
                                     obs::ObsSession* session)
    : op_(std::move(op)),
      tasks_(std::move(tasks)),
      runtime_(runtime),
      config_(config),
      obs_(session),
      counter_prefix_(std::move(counter_prefix)) {
  caches_.resize(tasks_.size());
  sites_.reserve(tasks_.size());
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].use_cache) {
      caches_[t] =
          std::make_unique<NodeCaches>(config_->num_nodes, cache_capacity);
    }
    const std::string base =
        counter_prefix_ + ".idx" + std::to_string(tasks_[t].index);
    sites_.emplace_back(op_->accessors()[tasks_[t].index].get(),
                        tasks_[t].index, base, ".lookup_latency_sec",
                        config_, failover, obs_);
    cache_hits_.emplace_back(base + ".cache_hits");
    if (obs_ != nullptr) {
      std::vector<int> hits, misses;
      if (tasks_[t].use_cache) {
        for (int n = 0; n < config_->num_nodes; ++n) {
          const std::string node = base + ".cache.node" + std::to_string(n);
          hits.push_back(obs_->metrics().Gauge(node + ".hits"));
          misses.push_back(obs_->metrics().Gauge(node + ".misses"));
        }
      }
      cache_hit_gauges_.push_back(std::move(hits));
      cache_miss_gauges_.push_back(std::move(misses));
    }
  }
}

std::string InlineLookupStage::name() const {
  return counter_prefix_ + ".lookup";
}

bool InlineLookupStage::holds_node_state() const {
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (caches_[t] || BreakersLive(sites_[t])) {
      return true;
    }
  }
  return false;
}

// Per-task state: the batched slots' pending lookups, and per cached slot
// the keys submitted but not yet Put() into the cache. A probe of such a key
// would have hit serially (the earlier miss's Put precedes it), so it counts
// as a hit and rides the same ticket.
struct InlineLookupStage::TaskState {
  explicit TaskState(std::span<const LookupSite> sites)
      : pending(sites), pending_keys(sites.size()) {}
  PendingLookups pending;
  std::vector<std::unordered_map<std::string, uint64_t>> pending_keys;
};

void InlineLookupStage::Process(Record record, TaskContext* ctx,
                                Emitter* out) {
  TaskState* ts = ctx->TaskStateFor<TaskState>(this, nullptr, sites_);
  if (!record.attachment) {
    // Nothing to look up — but it may not overtake buffered records.
    ts->pending.Add(std::move(record), {}, out);
    return;
  }
  OperatorTaskStats* stats =
      runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr;
  obs::TaskTrace* tt =
      obs_ != nullptr ? obs_->trace().TaskLocal(ctx) : nullptr;
  const double batch_t0 = ctx->sim_time();
  size_t batch_keys = 0;
  auto attachment = MutableAttachment(&record);
  std::vector<PendingLookups::Ref> refs;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const int j = tasks_[t].index;
    if (j < 0 || j >= static_cast<int>(attachment->keys.size())) continue;
    auto& keys = attachment->keys[j];
    auto& results = attachment->results[j];
    results.resize(keys.size());
    batch_keys += keys.size();
    const LookupSite& site = sites_[t];
    const bool batched = site.batched != nullptr;
    auto& pending_keys = ts->pending_keys[t];
    // This slot's cache for the node the task runs on (if caching). Safe
    // as a member: the cache makes this stage hold node state, so a node's
    // tasks are serialized on one strand.
    LruCache<std::string, CachedResult>* cache =
        caches_[t] ? &caches_[t]->ForNode(ctx->node_id()) : nullptr;
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& ik = keys[i];
      const double lk_t0 = ctx->sim_time();
      if (cache != nullptr) {
        // Probe the cache (T_cache); on a batched slot, a miss on a key
        // already submitted rides its ticket as a hit. Then count the probe.
        ctx->AddSimTime(config_->cache_probe_sec);
        bool hit = cache->Get(ik, &results[i]);
        if (!hit && batched) {
          auto it = pending_keys.find(ik);
          if (it != pending_keys.end()) {
            hit = true;
            refs.push_back({t, i, it->second});
          }
        }
        if (stats != nullptr) stats->CacheProbe(j, /*miss=*/!hit);
        if (hit) {
          ctx->counters()->Increment(cache_hits_[t]);
          site.Observe(lk_t0, /*local=*/false, ctx);
          continue;
        }
      } else if (stats != nullptr) {
        // No real cache: log a shadow-cache probe so R can be estimated
        // for re-optimization (paper §4.2).
        stats->ShadowProbe(j, ctx->node_id(), ik);
      }
      // Resolve: a serial slot looks up now; a batched slot submits, and
      // the flush charges and observes the lookup.
      if (batched) {
        const uint64_t ticket = ts->pending.Submit(t, ik, /*local=*/false);
        if (cache != nullptr) pending_keys.emplace(ik, ticket);
        refs.push_back({t, i, ticket});
        continue;
      }
      results[i] = site.Lookup(ik, /*local=*/false, ctx, stats);
      if (cache != nullptr) cache->Put(ik, results[i]);
      site.Observe(lk_t0, /*local=*/false, ctx);
    }
  }
  record.attachment = std::move(attachment);
  if (tt != nullptr && batch_keys > 0) {
    tt->Span("lookup_batch", "lookup", batch_t0, ctx->sim_time() - batch_t0,
             {{"keys", std::to_string(batch_keys)}});
  }
  ts->pending.Add(std::move(record), std::move(refs), out);
  if (ts->pending.pending() >=
      static_cast<size_t>(config_->store_batch_depth)) {
    Flush(ts, ctx, out, stats);
  }
}

void InlineLookupStage::Flush(TaskState* ts, TaskContext* ctx, Emitter* out,
                              OperatorTaskStats* stats) {
  ts->pending.Flush(ctx, stats, out,
                    [&](size_t t, uint64_t, const std::string& ik,
                        const CachedResult& values) {
                      if (caches_[t]) {
                        caches_[t]->ForNode(ctx->node_id()).Put(ik, values);
                      }
                    });
  for (auto& keys : ts->pending_keys) keys.clear();
}

void InlineLookupStage::EndTask(TaskContext* ctx, Emitter* out) {
  // Drain the tail batch before the obs snapshot so its page reads and
  // cache puts are part of this task's record.
  auto* ts = static_cast<TaskState*>(ctx->FindTaskState(this));
  if (ts != nullptr && !ts->pending.empty()) {
    Flush(ts, ctx, out,
          runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
  }
  // Cache hit/miss snapshot at end of task: the node cache is shared by the
  // node's (serially executed) tasks, so the ratio is the node's cumulative
  // state at this point of the serial order — deterministic at any thread
  // count.
  if (obs_ == nullptr) return;
  obs::TaskTrace* tt = obs_->trace().TaskLocal(ctx);
  obs::TaskMetrics* tm = obs_->metrics().TaskLocal(ctx);
  const int node = ctx->node_id();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (!caches_[t]) continue;
    const auto& cache = caches_[t]->ForNode(node);
    if (cache.probes() == 0) continue;
    const double hit_ratio = 1.0 - static_cast<double>(cache.misses()) /
                                       static_cast<double>(cache.probes());
    tt->Instant("cache_snapshot", "cache", ctx->sim_time(),
                {{"index", std::to_string(tasks_[t].index)},
                 {"hit_ratio", RatioStr(hit_ratio)},
                 {"probes", std::to_string(cache.probes())}});
    // Per-node gauge export of the shared LRU's cumulative hit/miss state.
    // Gauge semantics (last write in task-index absorb order) make the
    // surviving value the node's end-of-job totals, bit-identical at any
    // thread count.
    if (t < cache_hit_gauges_.size() &&
        node < static_cast<int>(cache_hit_gauges_[t].size())) {
      tm->Set(cache_hit_gauges_[t][node],
              static_cast<double>(cache.probes() - cache.misses()));
      tm->Set(cache_miss_gauges_[t][node],
              static_cast<double>(cache.misses()));
    }
  }
}

// ----------------------------------------------------------- postprocess --

PostProcessStage::PostProcessStage(std::shared_ptr<IndexOperator> op,
                                   OperatorRuntime* runtime,
                                   std::string counter_prefix)
    : op_(std::move(op)),
      runtime_(runtime),
      counter_prefix_(std::move(counter_prefix)) {}

std::string PostProcessStage::name() const {
  return counter_prefix_ + ".post";
}

void PostProcessStage::BeginTask(TaskContext* ctx) {
  if (runtime_ != nullptr) runtime_->TaskLocal(ctx);
}

namespace {

// Wraps the downstream emitter to meter postProcess output sizes into the
// current task's collector.
class MeteringEmitter : public Emitter {
 public:
  MeteringEmitter(Emitter* out, OperatorTaskStats* stats)
      : out_(out), stats_(stats) {}

  void Emit(Record record) override {
    if (stats_ != nullptr) stats_->PostRecord(record.size_bytes());
    out_->Emit(std::move(record));
  }

 private:
  Emitter* out_;
  OperatorTaskStats* stats_;
};

}  // namespace

void PostProcessStage::Process(Record record, TaskContext* ctx,
                               Emitter* out) {
  IndexResultLists results;
  if (record.attachment) {
    if (record.attachment->has_saved_key) {
      // Defensive: a record that skipped the grouped lookup still carries
      // its original key.
      record.key = record.attachment->saved_key;
    }
    if (record.attachment.use_count() == 1) {
      // Sole owner: steal the result lists instead of deep-copying them.
      auto owned = std::const_pointer_cast<RecordAttachment>(
          std::move(record.attachment));
      results = std::move(owned->results);
    } else {
      results = record.attachment->results;
    }
  }
  results.resize(op_->num_indices());
  record.attachment = nullptr;
  MeteringEmitter metering(
      out, runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
  op_->PostProcess(record, results, &metering);
}

// ------------------------------------------------------------ shuffle key --

ShuffleKeyStage::ShuffleKeyStage(std::shared_ptr<IndexOperator> op, int index,
                                 std::string counter_prefix)
    : op_(std::move(op)),
      index_(index),
      counter_prefix_(std::move(counter_prefix)),
      shuffle_skipped_(counter_prefix_ + ".shuffle_skipped") {}

std::string ShuffleKeyStage::name() const {
  return counter_prefix_ + ".shufkey" + std::to_string(index_);
}

void ShuffleKeyStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  if (!record.attachment ||
      index_ >= static_cast<int>(record.attachment->keys.size()) ||
      record.attachment->keys[index_].size() != 1) {
    ctx->counters()->Increment(shuffle_skipped_);
    out->Emit(std::move(record));
    return;
  }
  auto attachment = MutableAttachment(&record);
  attachment->saved_key = record.key;
  attachment->has_saved_key = true;
  record.key = attachment->keys[index_][0];
  record.attachment = std::move(attachment);
  out->Emit(std::move(record));
}

// ----------------------------------------------------------- group reduce --

void GroupReducer::Reduce(const std::string& key, std::vector<Record> values,
                          TaskContext* ctx, Emitter* out) {
  (void)key;
  (void)ctx;
  for (auto& v : values) out->Emit(std::move(v));
}

// --------------------------------------------------------- grouped lookup --

GroupedLookupStage::GroupedLookupStage(std::shared_ptr<IndexOperator> op,
                                       int index, bool local,
                                       OperatorRuntime* runtime,
                                       const ClusterConfig* config,
                                       std::string counter_prefix,
                                       const LookupFailover* failover,
                                       obs::ObsSession* session)
    : op_(std::move(op)),
      index_(index),
      local_(local),
      runtime_(runtime),
      config_(config),
      counter_prefix_(std::move(counter_prefix)),
      site_(op_->accessors()[index_].get(), index_,
            counter_prefix_ + ".idx" + std::to_string(index_),
            ".grouped_lookup_latency_sec", config_, failover, session),
      lookup_reuses_(counter_prefix_ + ".idx" + std::to_string(index_) +
                     ".lookup_reuses") {
  site_.lookup_span = "grouped_lookup";
}

std::string GroupedLookupStage::name() const {
  return counter_prefix_ + ".grouped_lookup" + std::to_string(index_);
}

bool GroupedLookupStage::holds_node_state() const {
  return BreakersLive(site_);
}

// Per-task state: the pending lookups of the batched site and the two memo
// tiers of the last grouped key. `run_*` is a key submitted to the open
// batch (later records of the same grouped run ride its ticket); `memo_*`
// is the last resolved grouped key (a run that straddles a flush keeps
// reusing it). A serial site resolves at once, so it only uses the memo.
struct GroupedLookupStage::TaskState {
  explicit TaskState(const LookupSite* site) : pending({site, 1}) {}
  PendingLookups pending;
  bool run_pending = false;
  std::string run_key;
  uint64_t run_ticket = 0;
  bool memo_valid = false;
  std::string memo_key;
  CachedResult memo_result;
};

void GroupedLookupStage::Process(Record record, TaskContext* ctx,
                                 Emitter* out) {
  OperatorTaskStats* stats =
      runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr;
  TaskState* ts = ctx->TaskStateFor<TaskState>(this, nullptr, &site_);
  auto lookup_now = [&](const std::string& ik, bool local) {
    const double t0 = ctx->sim_time();
    CachedResult result = site_.Lookup(ik, local, ctx, stats);
    site_.Observe(t0, local, ctx);
    return result;
  };
  std::vector<PendingLookups::Ref> refs;
  if (record.attachment && record.attachment->has_saved_key) {
    // Grouped record: restore the original key, then serve its lookup key
    // from a memo tier or one new lookup.
    auto attachment = MutableAttachment(&record);
    std::string ik = std::move(record.key);
    record.key = std::move(attachment->saved_key);
    attachment->saved_key.clear();
    attachment->has_saved_key = false;
    CachedResult* slot = nullptr;
    if (index_ < static_cast<int>(attachment->results.size())) {
      attachment->results[index_].resize(1);
      slot = &attachment->results[index_][0];
    }
    if (ts->run_pending && ts->run_key == ik) {
      // Same grouped run as the in-flight submit: ride its ticket.
      ctx->counters()->Increment(lookup_reuses_);
      refs.push_back({0, 0, ts->run_ticket});
    } else if (!ts->run_pending && ts->memo_valid && ts->memo_key == ik) {
      // Same run as the last resolved key: its result, no new lookup.
      ctx->counters()->Increment(lookup_reuses_);
      if (slot != nullptr) *slot = ts->memo_result;
    } else if (site_.batched != nullptr) {
      ts->run_ticket = ts->pending.Submit(0, ik, local_);
      ts->run_pending = true;
      ts->run_key = std::move(ik);
      refs.push_back({0, 0, ts->run_ticket});
    } else {
      ts->memo_result = lookup_now(ik, local_);
      ts->memo_valid = true;
      ts->memo_key = std::move(ik);
      if (slot != nullptr) *slot = ts->memo_result;
    }
    record.attachment = std::move(attachment);
  } else if (record.attachment &&
             index_ < static_cast<int>(record.attachment->keys.size()) &&
             !record.attachment->keys[index_].empty()) {
    // Record skipped the shuffle (it extracted zero or several keys for
    // this index): resolve its lookups remotely so postProcess still sees
    // complete results.
    auto attachment = MutableAttachment(&record);
    const auto& keys = attachment->keys[index_];
    auto& results = attachment->results[index_];
    results.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (site_.batched != nullptr) {
        refs.push_back({0, i, ts->pending.Submit(0, keys[i], /*local=*/false)});
      } else {
        results[i] = lookup_now(keys[i], /*local=*/false);
      }
    }
    record.attachment = std::move(attachment);
  }
  ts->pending.Add(std::move(record), std::move(refs), out);
  if (ts->pending.pending() >=
      static_cast<size_t>(config_->store_batch_depth)) {
    Flush(ts, ctx, out, stats);
  }
}

void GroupedLookupStage::Flush(TaskState* ts, TaskContext* ctx, Emitter* out,
                               OperatorTaskStats* stats) {
  // The run's submit is the last grouped one: it becomes the memo.
  ts->pending.Flush(ctx, stats, out,
                    [ts](size_t, uint64_t ticket, const std::string&,
                         const CachedResult& values) {
                      if (ts->run_pending && ticket == ts->run_ticket) {
                        ts->memo_result = values;
                      }
                    });
  if (ts->run_pending) {
    ts->memo_valid = true;
    ts->memo_key = std::move(ts->run_key);
    ts->run_pending = false;
  }
}

void GroupedLookupStage::EndTask(TaskContext* ctx, Emitter* out) {
  auto* ts = static_cast<TaskState*>(ctx->FindTaskState(this));
  if (ts == nullptr || ts->pending.empty()) return;
  Flush(ts, ctx, out,
        runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
}

// -------------------------------------------------------------- map meter --

MapMeterStage::MapMeterStage(std::vector<OperatorRuntime*> head_runtimes)
    : head_runtimes_(std::move(head_runtimes)) {}

void MapMeterStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  const uint64_t bytes = record.size_bytes();
  for (OperatorRuntime* rt : head_runtimes_) {
    if (rt != nullptr) rt->TaskLocal(ctx)->MapOutput(bytes);
  }
  out->Emit(std::move(record));
}

}  // namespace efind
