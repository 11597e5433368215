#include "efind/efind_job_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

#include "efind/cost_model.h"
#include "efind/stages.h"
#include "mapreduce/record_batch.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"

namespace efind {

struct EFindJobRunner::RunContext {
  /// One collector per operator, indexed by position, then operator index.
  std::vector<std::unique_ptr<OperatorRuntime>> runtimes[3];

  std::vector<std::unique_ptr<OperatorRuntime>>& at(OperatorPosition pos) {
    return runtimes[static_cast<int>(pos)];
  }
  const std::vector<std::unique_ptr<OperatorRuntime>>& at(
      OperatorPosition pos) const {
    return runtimes[static_cast<int>(pos)];
  }
  OperatorRuntime* Get(OperatorPosition pos, size_t i) {
    return i < at(pos).size() ? at(pos)[i].get() : nullptr;
  }
};

namespace {

/// Outputs leave the engine in record form: converts batch-form splits (a
/// pass-through reduce's output) in place.
void MaterializeOutputs(std::vector<InputSplit>* outputs) {
  for (InputSplit& split : *outputs) split.Materialize();
}

std::string FpHex(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

const char* PosTag(OperatorPosition pos) {
  switch (pos) {
    case OperatorPosition::kHead:
      return "h";
    case OperatorPosition::kBody:
      return "b";
    case OperatorPosition::kTail:
      return "t";
  }
  return "?";
}

/// Builds and executes the physical job pipeline for one (conf, plan) pair.
/// See stages.h for the composition rules.
class PipelineExecutor {
 public:
  PipelineExecutor(JobRunner* job_runner, const ClusterConfig& config,
                   const EFindOptions& options, const IndexJobConf& conf,
                   const JobPlan& plan, EFindJobRunner::RunContext* rc,
                   const CollectedStats* stats_hint, EFindRunResult* result,
                   const LookupFailover* failover,
                   reuse::MaterializedStore* store = nullptr,
                   uint64_t dataset_fp = 0, const std::string& tenant = {})
      : job_runner_(job_runner),
        config_(config),
        options_(options),
        conf_(conf),
        plan_(plan),
        rc_(rc),
        stats_hint_(stats_hint),
        result_(result),
        failover_(failover),
        obs_(job_runner->obs()),
        cost_model_(config),
        store_(store),
        dataset_fp_(dataset_fp),
        tenant_(tenant) {
    StartJob();
  }

  /// Executes the whole pipeline; outputs land in result_->outputs.
  void RunAll(const std::vector<InputSplit>& input) {
    JobConfig final_job = Prepare(input);
    if (!final_job.map_stages.empty() || final_job.reducer ||
        !final_job.reduce_stages.empty()) {
      cur_ = std::move(final_job);
      FinishJob("final");
    }
    TakeOutputs();
  }

  /// Runs all intermediate jobs and returns the final job's config without
  /// executing it (its input is `view()`). Requires that no tail operator
  /// needs a shuffle (holds for baseline tail plans, which is what the
  /// adaptive runtime uses this for).
  JobConfig Prepare(const std::vector<InputSplit>& input) {
    return Prepare(ViewOf(input));
  }

  /// As above over a borrowed view of splits; the pointed-to splits must
  /// stay valid until the next job boundary consumes them. No records are
  /// copied.
  JobConfig Prepare(std::vector<const InputSplit*> input) {
    view_ = std::move(input);
    view_is_data_ = false;
    reduce_side_ = false;
    for (size_t i = 0; i < conf_.head_ops().size(); ++i) {
      ExpandOperator(OperatorPosition::kHead, i);
    }
    if (conf_.mapper()) cur_.map_stages.push_back(conf_.mapper());
    if (!conf_.head_ops().empty()) {
      std::vector<OperatorRuntime*> rts;
      for (auto& rt : rc_->at(OperatorPosition::kHead)) {
        rts.push_back(rt.get());
      }
      cur_.map_stages.push_back(std::make_shared<MapMeterStage>(rts));
    }
    for (size_t i = 0; i < conf_.body_ops().size(); ++i) {
      ExpandOperator(OperatorPosition::kBody, i);
    }
    if (conf_.reducer()) {
      cur_.reducer = conf_.reducer();
      cur_.num_reduce_tasks = conf_.num_reduce_tasks();
      reduce_side_ = true;
    }
    for (size_t i = 0; i < conf_.tail_ops().size(); ++i) {
      ExpandOperator(OperatorPosition::kTail, i);
    }
    JobConfig final_job = std::move(cur_);
    final_job.name = conf_.name() + ":main";
    StartJob();
    return final_job;
  }

  /// Expands only the tail operators as a map-side pipeline over `input`
  /// (dynamic plan change in the middle of the reduce phase, Fig. 10b:
  /// the remaining reduce tasks' outputs flow through the new tail plan).
  void RunTailPipeline(const std::vector<InputSplit>& input) {
    view_ = ViewOf(input);
    view_is_data_ = false;
    reduce_side_ = false;
    first_job_ = false;  // Input comes from a prior job: boundary applies.
    for (size_t i = 0; i < conf_.tail_ops().size(); ++i) {
      ExpandOperator(OperatorPosition::kTail, i);
    }
    if (!cur_.map_stages.empty() || cur_.reducer) FinishJob("tail");
    TakeOutputs();
  }

  /// The current intermediate data as a borrowed view.
  const std::vector<const InputSplit*>& view() const { return view_; }

  /// Charges the DFS boundary into the job `into_job` about to run over
  /// `view()`, and returns its simulated seconds. Unless that job is the
  /// pipeline's first or reads an adopted artifact, the previous job stored
  /// its output in the DFS (replicated write, parallel across nodes); the
  /// job's map tasks charge the retrieval as their input read, so only the
  /// store side is charged here. An adopted artifact is already
  /// DFS-resident — no job wrote it this run, so only its retrieval (the
  /// map input read) is charged. The charge is traced as a `dfs_boundary`
  /// span that advances the trace clock, and its bytes are counted under
  /// `efind.dfs_bytes.<label>`.
  double ChargeBoundary(const std::string& into_job, const char* label) {
    const bool boundary = !first_job_ && !artifact_adopted_;
    artifact_adopted_ = false;
    if (!boundary) return 0.0;
    const uint64_t bytes = TotalSizeBytes(view_);
    const double seconds = config_.DfsStoreSeconds(bytes) / config_.num_nodes;
    if (obs_ != nullptr && seconds > 0.0) {
      obs::TraceRecorder& tr = obs_->trace();
      tr.Span("dfs_boundary", "boundary", tr.clock(), seconds,
              obs::kClusterTrack, 0,
              {{"bytes", std::to_string(bytes)}, {"into_job", into_job}});
      tr.AdvanceClock(seconds);
      obs_->metrics().Add(obs_->metrics().Counter("efind.dfs_boundary_bytes"),
                          static_cast<double>(bytes));
      obs_->metrics().Add(
          obs_->metrics().Counter(std::string("efind.dfs_bytes.") + label),
          static_cast<double>(bytes));
    }
    return seconds;
  }

 private:
  const OperatorPlan* PlanAt(OperatorPosition pos, size_t i) const {
    const std::vector<OperatorPlan>& group = plan_.at(pos);
    return i < group.size() ? &group[i] : nullptr;
  }

  const OperatorStats* StatsHintAt(OperatorPosition pos, size_t i) const {
    if (stats_hint_ == nullptr) return nullptr;
    const std::vector<OperatorStats>& group = stats_hint_->at(pos);
    return i < group.size() && group[i].valid ? &group[i] : nullptr;
  }

  void StartJob() {
    cur_ = JobConfig{};
    cur_.name = conf_.name() + ":job" + std::to_string(job_counter_++);
  }

  void FinishJob(const char* label) {
    cur_.name += std::string(":") + label;
    JobStageSummary summary;
    summary.name = cur_.name;
    summary.boundary_seconds = ChargeBoundary(cur_.name, label);
    double job_t0 = 0.0;
    if (obs_ != nullptr) job_t0 = obs_->trace().clock();
    // The pipeline's own intermediate data is handed over by ownership
    // (its records move into the map tasks); the caller's input is only
    // ever borrowed.
    JobResult job = view_is_data_ ? job_runner_->Run(cur_, std::move(data_))
                                  : job_runner_->Run(cur_, view_);
    summary.map_seconds = job.map_seconds;
    summary.reduce_seconds = job.reduce_seconds;
    summary.map_tasks = job.num_map_tasks;
    summary.reduce_tasks = job.num_reduce_tasks;
    summary.map_task_durations = job.map_task_durations;
    summary.map_task_base_durations = job.map_task_base_durations;
    summary.reduce_task_durations = job.reduce_task_durations;
    summary.reduce_task_base_durations = job.reduce_task_base_durations;
    // The map/reduce phase spans advanced the clock by job.sim_seconds, so
    // the job span covers exactly the phases it contains.
    if (obs_ != nullptr) {
      obs_->trace().Span(cur_.name, "job", job_t0, job.sim_seconds,
                         obs::kClusterTrack, 0,
                         {{"map_tasks", std::to_string(job.num_map_tasks)},
                          {"reduce_tasks",
                           std::to_string(job.num_reduce_tasks)}});
    }
    result_->jobs.push_back(summary);
    result_->counters.Merge(job.counters);
    result_->sim_seconds +=
        job.sim_seconds + summary.boundary_seconds;
    AdoptData(std::move(job.outputs));
    first_job_ = false;
    StartJob();
  }

  /// Takes ownership of `splits` as the current intermediate data and
  /// points the view at it.
  void AdoptData(std::vector<InputSplit> splits) {
    data_ = std::move(splits);
    view_ = ViewOf(data_);
    view_is_data_ = true;
  }

  /// Moves the current data into result_->outputs (copying borrowed splits
  /// only if no job ever ran, i.e. the pipeline was empty), in record form.
  void TakeOutputs() {
    if (view_is_data_) {
      result_->outputs = std::move(data_);
    } else {
      result_->outputs.clear();
      result_->outputs.reserve(view_.size());
      for (const InputSplit* s : view_) result_->outputs.push_back(*s);
    }
    MaterializeOutputs(&result_->outputs);
    data_.clear();
    view_.clear();
    view_is_data_ = false;
  }

  /// Adopts a resolved artifact as the current intermediate data in place
  /// of the accumulated pipeline stages (which the artifact's fingerprint
  /// certifies it equals, shuffled and grouped). Charges the fixed resolve
  /// overhead plus any corruption re-fetch traffic detected during the
  /// resolve (DESIGN.md §10); the artifact's retrieval bytes are charged by
  /// the follow-up job's remote map input read.
  void AdoptArtifact(std::vector<InputSplit> splits, uint64_t fp,
                     const std::string& op_name,
                     const reuse::MaterializedStore::ResolveOutcome& outcome) {
    const double refetch_sec = config_.TransferSeconds(outcome.refetch_bytes);
    result_->counters.Increment("efind.reuse.hits");
    if (outcome.cross_tenant) {
      result_->counters.Increment("efind.reuse.cross_tenant_hits");
    }
    if (outcome.corrupt_chunks > 0) {
      // Every injected artifact corruption is detected by construction —
      // the bench asserts injected == detected and served_corrupt == 0.
      result_->counters.Increment("efind.integrity.injected",
                                  outcome.corrupt_chunks);
      result_->counters.Increment("efind.integrity.detected",
                                  outcome.corrupt_chunks);
    }
    if (obs_ != nullptr) {
      obs::TraceRecorder& tr = obs_->trace();
      std::vector<obs::TraceArg> hit_args = {{"fingerprint", FpHex(fp)},
                                             {"operator", op_name}};
      if (outcome.cross_tenant) hit_args.push_back({"owner", outcome.owner});
      tr.Instant("reuse_hit", "reuse", tr.clock(), obs::kClusterTrack,
                 hit_args);
      if (outcome.corrupt_chunks > 0) {
        tr.Instant("integrity_retry", "resilience", tr.clock(),
                   obs::kClusterTrack,
                   {{"kind", "artifact"},
                    {"attempts", std::to_string(outcome.corrupt_chunks)}});
        obs::MetricsRegistry& mx = obs_->metrics();
        mx.Add(mx.Counter("efind.integrity.injected"),
               static_cast<double>(outcome.corrupt_chunks));
        mx.Add(mx.Counter("efind.integrity.detected"),
               static_cast<double>(outcome.corrupt_chunks));
      }
      tr.AdvanceClock(config_.reuse_resolve_sec + refetch_sec);
      obs_->metrics().Add(obs_->metrics().Counter("efind.reuse.hits"), 1.0);
      if (outcome.cross_tenant) {
        obs_->metrics().Add(
            obs_->metrics().Counter("efind.reuse.cross_tenant_hits"), 1.0);
      }
    }
    StartJob();
    reduce_side_ = false;
    AdoptData(std::move(splits));
    JobStageSummary summary;
    summary.name = conf_.name() + ":reuse:" + op_name;
    summary.boundary_seconds = config_.reuse_resolve_sec + refetch_sec;
    result_->jobs.push_back(summary);
    result_->sim_seconds += config_.reuse_resolve_sec + refetch_sec;
    first_job_ = false;
    artifact_adopted_ = true;
  }

  /// Offers the just-shuffled grouped output (the current `view_`) to the
  /// store. Free in simulated time by design: the follow-up job's DFS
  /// boundary already pays for storing this data, and keeping it past the
  /// job's end costs capacity, not seconds.
  void PublishArtifact(uint64_t fp, const std::string& op_name,
                       reuse::ArtifactLayout layout, int partitions) {
    // The shuffle output is in batch form, so the copy shares its batches.
    std::vector<InputSplit> copy;
    copy.reserve(view_.size());
    for (const InputSplit* s : view_) copy.push_back(*s);
    const uint64_t bytes = TotalSizeBytes(view_);
    // Benefit estimate for eviction (Eq. 3's shuffle + extra-job terms,
    // from the artifact's actual bytes): what a future hit saves. Derived
    // without statistics so plain RunWithStrategy runs can publish too.
    const double saved =
        static_cast<double>(bytes) / config_.num_nodes *
            (1.0 / config_.network_bw_bytes_per_sec +
             config_.dfs_cost_per_byte) +
        cost_model_.ExtraJobSeconds();
    const reuse::MaterializedStore::PublishResult pr = store_->Publish(
        fp, std::move(copy), saved, layout, partitions,
        conf_.name() + ":" + op_name, tenant_);
    if (obs_ != nullptr) {
      obs::TraceRecorder& tr = obs_->trace();
      tr.Span("materialize", "reuse", tr.clock(), 0.0, obs::kClusterTrack, 0,
              {{"fingerprint", FpHex(fp)},
               {"operator", op_name},
               {"bytes", std::to_string(bytes)},
               {"stored", pr.stored ? "1" : "0"},
               {"evicted", std::to_string(pr.evicted)}});
      obs::MetricsRegistry& mx = obs_->metrics();
      mx.Add(mx.Counter("efind.reuse.publishes"), pr.stored ? 1.0 : 0.0);
      mx.Add(mx.Counter("efind.reuse.rejects"), pr.stored ? 0.0 : 1.0);
      mx.Add(mx.Counter("efind.reuse.evictions"),
             static_cast<double>(pr.evicted));
      if (pr.stored) {
        mx.Add(mx.Counter("efind.reuse.materialized_bytes"),
               static_cast<double>(bytes));
      }
    }
  }

  /// Re-splits the current grouped data for index locality: the follow-up
  /// tasks run at the index hosts (co-partitioned) and fetch their input
  /// over the network (Eq. 4's N1*Spre/BW term). Each partition's grouped
  /// file is chunked HDFS-style into several sub-splits spread over the
  /// partition's replica hosts, so the lookup phase is not limited to
  /// num_partitions-way parallelism (this is why the index being
  /// "replicated to three data nodes" matters). Chunk cuts fall between
  /// records; a group cut in two costs one extra lookup, nothing more.
  /// Runs right after the grouped data (the shuffle job's output, or a copy
  /// of a stored artifact) was adopted, so it cuts the owned `data_` into
  /// the chunks: a batch-form split into batch slices, a record-form one by
  /// moving its records.
  void ResplitForLocality(const PartitionScheme* scheme) {
    uint64_t total_records = 0;
    for (const InputSplit& split : data_) {
      total_records += split.num_records();
    }
    std::vector<InputSplit> resplit;
    for (size_t r = 0; r < data_.size(); ++r) {
      const int p = static_cast<int>(r);
      // Failure-aware placement: skip replica hosts that are down for
      // the whole run — their chunks would only lose locality later.
      // Transiently-down hosts keep their chunks (the lookup path rides
      // the outage out with retries/failover).
      const HostAvailability* avail = failover_->availability();
      std::vector<int> hosts;
      for (int n = 0; n < config_.num_nodes; ++n) {
        if (scheme->NodeHostsPartition(n, p) && !avail->IsDownWholeRun(n)) {
          hosts.push_back(n);
        }
      }
      if (hosts.empty()) hosts.push_back(p % config_.num_nodes);
      InputSplit& split = data_[r];
      const size_t n_rec = split.num_records();
      // Chunk count proportional to the partition's share of the data
      // (big partitions = more HDFS chunks), so skewed partitions do
      // not become stragglers; ~4 chunks per slot keeps the wave
      // quantization loss small under skew.
      const size_t target_chunks =
          total_records > 0
              ? static_cast<size_t>(
                    (static_cast<double>(n_rec) / total_records) *
                        (4.0 * config_.total_map_slots()) +
                    0.999)
              : 1;
      const size_t n_chunks = std::max<size_t>(
          1, std::min<size_t>(target_chunks, n_rec));
      for (size_t c = 0; c < n_chunks; ++c) {
        InputSplit chunk;
        chunk.node = hosts[c % hosts.size()];
        const size_t from = n_rec * c / n_chunks;
        const size_t to = n_rec * (c + 1) / n_chunks;
        if (split.batch) {
          chunk.batch = split.batch->Slice(from, to);
        } else {
          chunk.records.assign(
              std::make_move_iterator(split.records.begin() + from),
              std::make_move_iterator(split.records.begin() + to));
        }
        if (chunk.num_records() > 0 || c == 0) {
          resplit.push_back(std::move(chunk));
        }
      }
    }
    AdoptData(std::move(resplit));
    cur_.map_input_remote = true;
  }

  void ExpandOperator(OperatorPosition pos, size_t op_index) {
    const auto& op = conf_.ops(pos)[op_index];
    const OperatorPlan* oplan = PlanAt(pos, op_index);
    OperatorRuntime* rt = rc_->Get(pos, op_index);
    const std::string prefix =
        std::string("efind.") + PosTag(pos) + std::to_string(op_index);

    auto side_stages = [&]() -> std::vector<std::shared_ptr<RecordStage>>* {
      return reduce_side_ ? &cur_.reduce_stages : &cur_.map_stages;
    };

    side_stages()->push_back(
        std::make_shared<PreProcessStage>(op, rt, prefix));

    std::vector<IndexChoice> shuffled;
    std::vector<InlineIndexTask> inline_tasks;
    if (oplan != nullptr) {
      for (const IndexChoice& c : oplan->order) {
        if (c.strategy == Strategy::kRepartition ||
            c.strategy == Strategy::kSaltedRepartition ||
            c.strategy == Strategy::kIndexLocality) {
          shuffled.push_back(c);
        } else {
          inline_tasks.push_back(
              {c.index, c.strategy == Strategy::kLookupCache});
        }
      }
    } else {
      for (int j = 0; j < op->num_indices(); ++j) {
        inline_tasks.push_back({j, false});
      }
    }

    const OperatorStats* stats = StatsHintAt(pos, op_index);
    double spre_eff = stats != nullptr ? stats->spre : 0.0;

    for (size_t s = 0; s < shuffled.size(); ++s) {
      const IndexChoice& choice = shuffled[s];
      const PartitionScheme* scheme =
          op->accessors()[choice.index]->partition_scheme();
      const bool idxloc =
          choice.strategy == Strategy::kIndexLocality && scheme != nullptr;
      // Salted re-partitioning needs the detected hot-key set; without a
      // statistics hint it degenerates to plain re-partitioning (the
      // SaltingPartitioner would have nothing to spread).
      const IndexStats* choice_stats =
          stats != nullptr &&
                  choice.index < static_cast<int>(stats->index.size())
              ? &stats->index[choice.index]
              : nullptr;
      const bool salted = choice.strategy == Strategy::kSaltedRepartition &&
                          choice_stats != nullptr &&
                          !choice_stats->hot_keys.empty();
      const int partitions =
          idxloc ? scheme->num_partitions() : config_.total_map_slots();
      const reuse::ArtifactLayout layout =
          idxloc ? reuse::ArtifactLayout::kIndexLocality
                 : reuse::ArtifactLayout::kRepartition;

      // Cross-job reuse (DESIGN.md §9): only an operator's *first* shuffle
      // is materializable — later shuffles regroup data already augmented
      // with earlier indices' lookup results, which the store does not
      // name. The fingerprint is derived from the same parameters the
      // execution below would use, so publish and resolve cannot disagree.
      // Salted output is excluded: its bucket layout depends on the run's
      // detected hot set, which the fingerprint does not name.
      const bool store_eligible = s == 0 && store_ != nullptr && !salted;
      uint64_t artifact_fp = 0;
      if (store_eligible) {
        artifact_fp = reuse::FirstShuffleFingerprint(
            conf_, dataset_fp_, pos, static_cast<int>(op_index), choice.index,
            layout, partitions);
        reuse::MaterializedStore::ResolveOutcome outcome;
        const std::vector<InputSplit>* artifact = store_->Resolve(
            artifact_fp, failover_->availability(), failover_->faults(),
            &outcome, tenant_);
        if (artifact != nullptr) {
          // Hit: the artifact *is* the grouped output of everything the
          // pipeline has accumulated so far plus this shuffle (equal by
          // fingerprint construction), so the accumulated stages are
          // dropped and the stored splits adopted in their place.
          AdoptArtifact(reuse::CopySplits(*artifact), artifact_fp,
                        op->name(), outcome);
          if (idxloc) {
            ResplitForLocality(scheme);
          }
          // The adopted splits live in the DFS, not on this job's nodes.
          cur_.map_input_remote = true;
          cur_.map_stages.push_back(std::make_shared<GroupedLookupStage>(
              op, choice.index, idxloc, rt, &config_, prefix, failover_,
              obs_));
          if (stats != nullptr &&
              choice.index < static_cast<int>(stats->index.size())) {
            spre_eff += stats->index[choice.index].nik *
                        stats->index[choice.index].siv;
          }
          continue;
        }
        result_->counters.Increment("efind.reuse.misses");
        if (obs_ != nullptr) {
          obs_->trace().Instant("reuse_miss", "reuse", obs_->trace().clock(),
                                obs::kClusterTrack,
                                {{"fingerprint", FpHex(artifact_fp)},
                                 {"operator", op->name()}});
          obs_->metrics().Add(obs_->metrics().Counter("efind.reuse.misses"),
                              1.0);
        }
      }

      if (reduce_side_) {
        // The operator follows the user's Reduce: finish the job holding
        // that reducer first; the shuffle becomes a fresh job.
        FinishJob("pre-tail");
        reduce_side_ = false;
      }

      cur_.map_stages.push_back(
          std::make_shared<ShuffleKeyStage>(op, choice.index, prefix));
      cur_.reducer = std::make_shared<GroupReducer>();
      if (idxloc) {
        cur_.partitioner = std::make_shared<SchemePartitioner>(scheme);
      } else if (salted) {
        const int fanout = std::max(2, options_.salt_fanout);
        cur_.partitioner = std::make_shared<SaltingPartitioner>(
            choice_stats->hot_keys, fanout);
        if (obs_ != nullptr) {
          obs::TraceRecorder& tr = obs_->trace();
          tr.Instant("skew_detected", "skew", tr.clock(), obs::kClusterTrack,
                     {{"operator", op->name()},
                      {"index", std::to_string(choice.index)},
                      {"hot_keys",
                       std::to_string(choice_stats->hot_keys.size())},
                      {"max_share",
                       std::to_string(choice_stats->max_key_share)}});
          tr.Instant("salt_split", "skew", tr.clock(), obs::kClusterTrack,
                     {{"operator", op->name()},
                      {"index", std::to_string(choice.index)},
                      {"fanout", std::to_string(fanout)},
                      {"partitions", std::to_string(partitions)}});
          obs::MetricsRegistry& mx = obs_->metrics();
          mx.Add(mx.Counter("efind.skew.hot_keys"),
                 static_cast<double>(choice_stats->hot_keys.size()));
          mx.Add(mx.Counter("efind.skew.salt_splits"), 1.0);
        }
      }
      // Non-idxloc: as many grouped output files as map slots, so the
      // follow-up lookup job runs at full parallelism.
      cur_.num_reduce_tasks = partitions;

      // Job-boundary placement (Fig. 7): when this is the operator's last
      // shuffle and statistics say the post-processed data is smaller than
      // the pre-processed data, run the rest of the operator inside this
      // job's reduce side so the smaller form is stored.
      const bool last_shuffle = (s + 1 == shuffled.size());
      bool post_boundary = false;
      if (last_shuffle && !idxloc) {
        switch (options_.boundary_policy) {
          case BoundaryPolicy::kForcePre:
            break;
          case BoundaryPolicy::kForcePost:
            post_boundary = true;
            break;
          case BoundaryPolicy::kAuto:
            if (stats != nullptr) {
              const double lookup_cost =
                  cost_model_.Cost(choice.strategy, *stats, choice.index,
                                   pos, spre_eff) -
                  cost_model_.ShuffleCost(*stats, spre_eff) -
                  cost_model_.ExtraJobSeconds();
              post_boundary = cost_model_.PreferPostBoundary(
                  *stats, pos, spre_eff, std::max(0.0, lookup_cost));
            }
            break;
        }
      }
      if (post_boundary) {
        cur_.reduce_stages.push_back(std::make_shared<GroupedLookupStage>(
            op, choice.index, /*local=*/false, rt, &config_, prefix,
            failover_, obs_));
        if (!inline_tasks.empty()) {
          cur_.reduce_stages.push_back(std::make_shared<InlineLookupStage>(
              op, inline_tasks, rt, &config_, options_.cache_capacity,
              prefix, failover_, obs_));
        }
        cur_.reduce_stages.push_back(
            std::make_shared<PostProcessStage>(op, rt, prefix));
        FinishJob("shuffle+post");
        return;  // Operator fully expanded.
      }

      FinishJob("shuffle");
      if (store_eligible) {
        // Publish before the locality re-split: the artifact is the
        // placement-independent grouped output; a future adopter re-splits
        // against *its* run's host availability.
        PublishArtifact(artifact_fp, op->name(), layout, partitions);
      }
      if (idxloc) {
        ResplitForLocality(scheme);
      }
      cur_.map_stages.push_back(std::make_shared<GroupedLookupStage>(
          op, choice.index, idxloc, rt, &config_, prefix, failover_, obs_));

      if (stats != nullptr &&
          choice.index < static_cast<int>(stats->index.size())) {
        spre_eff += stats->index[choice.index].nik *
                    stats->index[choice.index].siv;
      }
    }

    if (!inline_tasks.empty()) {
      side_stages()->push_back(std::make_shared<InlineLookupStage>(
          op, inline_tasks, rt, &config_, options_.cache_capacity, prefix,
          failover_, obs_));
    }
    side_stages()->push_back(
        std::make_shared<PostProcessStage>(op, rt, prefix));
  }

  JobRunner* job_runner_;
  const ClusterConfig& config_;
  const EFindOptions& options_;
  const IndexJobConf& conf_;
  const JobPlan& plan_;
  EFindJobRunner::RunContext* rc_;
  const CollectedStats* stats_hint_;
  EFindRunResult* result_;
  const LookupFailover* failover_;
  obs::ObsSession* obs_;
  CostModel cost_model_;
  /// Cross-job artifact store (null = reuse disabled) and the fingerprint
  /// of the dataset this pipeline runs over (DESIGN.md §9).
  reuse::MaterializedStore* store_;
  uint64_t dataset_fp_;
  /// Tenant identity store traffic is attributed to ("" = untenanted).
  const std::string tenant_;

  JobConfig cur_;
  /// Intermediate splits owned by the executor (outputs of the last job),
  /// when `view_is_data_`. `view_` is what the next job reads — it points
  /// either into `data_` or into caller-owned splits (zero-copy input).
  std::vector<InputSplit> data_;
  std::vector<const InputSplit*> view_;
  bool view_is_data_ = false;
  bool reduce_side_ = false;
  bool first_job_ = true;
  /// Set between adopting an artifact and the next FinishJob: that job's
  /// input came from the DFS-resident store, not from a job of this run,
  /// so no boundary store cost applies.
  bool artifact_adopted_ = false;
  int job_counter_ = 0;
};

}  // namespace

EFindJobRunner::EFindJobRunner(const ClusterConfig& config,
                               const EFindOptions& options)
    : config_(config),
      options_(options),
      job_runner_(config),
      optimizer_(config),
      avail_(config_),
      faults_(&config_, &avail_),
      failover_(&config_, &avail_, &faults_) {
  job_runner_.set_num_threads(options_.threads);
}

std::unique_ptr<EFindJobRunner::RunContext> EFindJobRunner::MakeRunContext(
    const IndexJobConf& conf) const {
  auto rc = std::make_unique<RunContext>();
  for (OperatorPosition pos : kOperatorPositions) {
    for (const auto& op : conf.ops(pos)) {
      rc->at(pos).push_back(std::make_unique<OperatorRuntime>(
          op->num_indices(), config_.num_nodes, options_.cache_capacity,
          options_.hot_key_threshold, options_.salt_fanout));
    }
  }
  return rc;
}

CollectedStats EFindJobRunner::ComputeStatsWithConf(
    const RunContext& rc, const IndexJobConf& conf,
    double extrapolation) const {
  CollectedStats stats;
  for (OperatorPosition pos : kOperatorPositions) {
    const auto& ops = conf.ops(pos);
    const auto& runtimes = rc.at(pos);
    for (size_t i = 0; i < runtimes.size(); ++i) {
      OperatorStats st =
          runtimes[i]->Compute(config_.num_nodes, extrapolation);
      // Capability flags come from the accessors.
      for (int j = 0; j < static_cast<int>(st.index.size()); ++j) {
        const IndexAccessor& accessor = *ops[i]->accessors()[j];
        st.index[j].idempotent = accessor.idempotent();
        st.index[j].has_partition_scheme =
            accessor.partition_scheme() != nullptr;
        st.index[j].remote_overhead = accessor.RemoteOverheadSeconds();
      }
      stats.at(pos).push_back(std::move(st));
    }
  }
  return stats;
}

namespace {

/// Gauges comparing a cost-model plan estimate made from one statistics
/// snapshot (first-wave extrapolation, or a prior collection run) with the
/// same estimate recomputed from the full run's measured statistics — the
/// observable error of the prediction the optimizer acted on.
void RecordCostModelError(obs::ObsSession* session, const std::string& scope,
                          double predicted, double actual) {
  obs::MetricsRegistry& mx = session->metrics();
  mx.Set(mx.Gauge("efind.cost_model." + scope + ".predicted_sec"), predicted);
  mx.Set(mx.Gauge("efind.cost_model." + scope + ".actual_sec"), actual);
  if (actual > 0.0) {
    mx.Set(mx.Gauge("efind.cost_model." + scope + ".rel_error"),
           (predicted - actual) / actual);
  }
}

}  // namespace

EFindRunResult EFindJobRunner::RunWithPlan(const IndexJobConf& conf,
                                           const std::vector<InputSplit>& input,
                                           const JobPlan& plan,
                                           const CollectedStats* stats_hint) {
  auto rc = MakeRunContext(conf);
  EFindRunResult result;
  result.plan = plan;
  const uint64_t dataset_fp =
      reuse_ != nullptr ? reuse::DatasetFingerprint(conf, input) : 0;
  PipelineExecutor px(&job_runner_, config_, options_, conf, plan, rc.get(),
                      stats_hint, &result, &failover_, reuse_, dataset_fp,
                      tenant_);
  px.RunAll(input);
  result.stats = ComputeStatsWithConf(*rc, conf, 1.0);
  if (obs_ != nullptr && stats_hint != nullptr) {
    RecordCostModelError(obs_, "static", PlanCost(plan, *stats_hint),
                         PlanCost(plan, result.stats));
  }
  return result;
}

EFindRunResult EFindJobRunner::RunWithStrategy(
    const IndexJobConf& conf, const std::vector<InputSplit>& input,
    Strategy strategy) {
  return RunWithPlan(conf, input, MakeUniformPlan(conf, strategy));
}

CollectedStats EFindJobRunner::CollectStatistics(
    const IndexJobConf& conf, const std::vector<InputSplit>& input) {
  EFindRunResult result =
      RunWithPlan(conf, input, MakeUniformPlan(conf, Strategy::kBaseline));
  return result.stats;
}

JobPlan EFindJobRunner::PlanFromStats(
    const IndexJobConf& conf, const CollectedStats& stats,
    const std::vector<InputSplit>* input) const {
  if (reuse_ == nullptr || input == nullptr) {
    return optimizer_.OptimizeJob(conf, stats.head, stats.body, stats.tail);
  }
  // Reuse-aware optimization: flag every index whose first-shuffle artifact
  // the store can serve; the cost model then prices those shuffles at
  // resolve + retrieval instead of Eq. 3/4's full shuffle + extra job, so
  // the optimizer picks among fresh / run-and-materialize / reuse on cost.
  CollectedStats annotated = stats;
  AnnotateReuse(conf, reuse::DatasetFingerprint(conf, *input), &annotated);
  return optimizer_.OptimizeJob(conf, annotated.head, annotated.body,
                                annotated.tail);
}

void EFindJobRunner::AnnotateReuse(const IndexJobConf& conf,
                                   uint64_t dataset_fp,
                                   CollectedStats* stats) const {
  if (reuse_ == nullptr) return;
  for (OperatorPosition pos : kOperatorPositions) {
    const auto& ops = conf.ops(pos);
    std::vector<OperatorStats>& group = stats->at(pos);
    for (size_t i = 0; i < ops.size() && i < group.size(); ++i) {
      OperatorStats& st = group[i];
      for (int j = 0; j < ops[i]->num_indices() &&
                      j < static_cast<int>(st.index.size());
           ++j) {
        const auto reachable = [&](reuse::ArtifactLayout layout,
                                   int partitions) {
          return reuse_->Reachable(
              reuse::FirstShuffleFingerprint(conf, dataset_fp, pos,
                                             static_cast<int>(i), j, layout,
                                             partitions),
              failover_.availability());
        };
        st.index[j].artifact_repart = reachable(
            reuse::ArtifactLayout::kRepartition, config_.total_map_slots());
        const PartitionScheme* scheme =
            ops[i]->accessors()[j]->partition_scheme();
        if (scheme != nullptr) {
          st.index[j].artifact_idxloc = reachable(
              reuse::ArtifactLayout::kIndexLocality, scheme->num_partitions());
        }
      }
    }
  }
}

bool EFindJobRunner::Reoptimize(bool at_map_phase, const JobPlan& current,
                                const CollectedStats& stats,
                                JobPlan* new_plan) const {
  const CostModel& cm = optimizer_.cost_model();
  // The operators of the current phase: head and body while maps remain,
  // tail during the reduce phase.
  const std::span<const OperatorPosition> phase =
      at_map_phase ? std::span(kOperatorPositions).first(2)
                   : std::span(kOperatorPositions).last(1);

  // Algorithm 1, lines 1-3: the collected statistics must be stable.
  bool any_valid = false;
  for (OperatorPosition pos : phase) {
    for (const auto& st : stats.at(pos)) {
      if (!st.valid) continue;
      any_valid = true;
      // Gate on the relative standard error of the sample mean (the paper
      // argues via the central limit theorem that the sample mean is
      // trustworthy when its deviation is small): stddev/mean / sqrt(n).
      if (st.tasks_sampled >= 2 &&
          st.max_cov / std::sqrt(static_cast<double>(st.tasks_sampled)) >
              options_.variance_threshold) {
        return false;
      }
    }
  }
  if (!any_valid) return false;

  // Lines 4-9: optimize the operators of the current phase only.
  JobPlan candidate = current;
  double current_cost = 0.0;
  double candidate_cost = 0.0;
  for (OperatorPosition pos : phase) {
    const std::vector<OperatorStats>& group = stats.at(pos);
    const std::vector<OperatorPlan>& cur_group = current.at(pos);
    std::vector<OperatorPlan>& out_group = candidate.at(pos);
    for (size_t i = 0; i < group.size() && i < out_group.size(); ++i) {
      if (!group[i].valid) continue;
      current_cost += cm.OperatorPlanCost(cur_group[i], group[i], pos);
      out_group[i] = optimizer_.OptimizeOperator(group[i], pos);
      candidate_cost += cm.OperatorPlanCost(out_group[i], group[i], pos);
    }
  }

  // Line 10: the improvement must exceed the plan-change overhead.
  if (current_cost - candidate_cost <= options_.plan_change_cost_sec) {
    return false;
  }
  *new_plan = candidate;
  return true;
}

double EFindJobRunner::PlanCost(const JobPlan& plan,
                                const CollectedStats& stats) const {
  const CostModel& cm = optimizer_.cost_model();
  double total = 0.0;
  for (OperatorPosition pos : kOperatorPositions) {
    const std::vector<OperatorPlan>& group = plan.at(pos);
    const std::vector<OperatorStats>& sg = stats.at(pos);
    for (size_t i = 0; i < group.size() && i < sg.size(); ++i) {
      if (sg[i].valid) total += cm.OperatorPlanCost(group[i], sg[i], pos);
    }
  }
  return total;
}

EFindRunResult EFindJobRunner::RunDynamic(const IndexJobConf& conf,
                                          const std::vector<InputSplit>& input) {
  auto rc = MakeRunContext(conf);
  EFindRunResult result;
  const JobPlan base_plan = MakeUniformPlan(conf, Strategy::kBaseline);
  result.plan = base_plan;

  PipelineExecutor px(&job_runner_, config_, options_, conf, base_plan,
                      rc.get(), nullptr, &result, &failover_);
  const size_t total_splits = input.size();
  const size_t wave =
      std::min(total_splits, static_cast<size_t>(config_.total_map_slots()));

  // Hadoop assigns splits to the first round of map tasks in no particular
  // file order (locality-driven), so the statistics sample is spread over
  // the whole input. Model that with a strided schedule: the first wave
  // takes every (num_waves)-th split, making phenomena like DUP10's
  // file-level duplication visible to the collected statistics. The
  // schedule is a view of the caller's splits — no records are copied.
  std::vector<const InputSplit*> scheduled;
  scheduled.reserve(total_splits);
  const size_t num_waves =
      wave > 0 ? (total_splits + wave - 1) / wave : 1;
  for (size_t r = 0; r < num_waves; ++r) {
    for (size_t i = r; i < total_splits; i += num_waves) {
      scheduled.push_back(&input[i]);
    }
  }

  JobConfig baseline_job = px.Prepare(scheduled);

  // Statistics phase: the first round of map tasks runs the baseline plan
  // (paper §4.1). Task results are kept for reuse (Fig. 10a).
  MapPhaseResult first_wave =
      job_runner_.RunMapPhase(baseline_job, scheduled, 0, wave);
  double elapsed = first_wave.schedule.makespan;
  result.stats_wave_seconds = elapsed;
  for (const auto& t : first_wave.tasks) result.counters.Merge(t.counters);

  const double extrapolation =
      wave > 0 ? static_cast<double>(total_splits) / wave : 1.0;
  CollectedStats wave_stats = ComputeStatsWithConf(*rc, conf, extrapolation);

  // Re-optimizing the map phase only makes sense while map tasks remain
  // (the paper assumes jobs run "much larger number of Map tasks than the
  // number of machine nodes so that Map tasks are performed in multiple
  // rounds", §4.1).
  JobPlan new_plan;
  bool changed = wave < total_splits &&
                 Reoptimize(/*at_map_phase=*/true, base_plan, wave_stats,
                            &new_plan);
  // Algorithm 1's decision point: the simulated moment the first map wave
  // finished and statistics were inspected.
  if (obs_ != nullptr) {
    obs::TraceRecorder& tr = obs_->trace();
    if (changed) {
      tr.Instant("plan_switch", "plan", tr.clock(), obs::kClusterTrack,
                 {{"phase", "map"}, {"plan", new_plan.ToString()}});
      obs_->metrics().Add(obs_->metrics().Counter("efind.plan_switches"),
                          1.0);
    } else {
      tr.Instant("plan_kept", "plan", tr.clock(), obs::kClusterTrack,
                 {{"phase", "map"}});
    }
  }

  JobConfig final_job = baseline_job;
  MapPhaseResult rest_wave;
  if (!changed) {
    rest_wave = job_runner_.RunMapPhase(baseline_job, scheduled, wave,
                                        total_splits);
  } else {
    result.replanned = true;
    result.plan = new_plan;
    // Apply the new plan to the splits that have not started (Fig. 10a):
    // the remaining input flows through the new pipeline (which may contain
    // shuffle jobs), whose final job feeds the same reduce as the old plan.
    EFindRunResult sub;
    PipelineExecutor px2(&job_runner_, config_, options_, conf, new_plan,
                         rc.get(), &wave_stats, &sub, &failover_);
    std::vector<const InputSplit*> remaining(scheduled.begin() + wave,
                                             scheduled.end());
    final_job = px2.Prepare(std::move(remaining));
    elapsed += sub.sim_seconds;
    for (auto& j : sub.jobs) result.jobs.push_back(j);
    result.counters.Merge(sub.counters);
    // A new plan with a shuffle job left its output in the DFS, which the
    // final job's map tasks read, as `FinishJob("final")` charges it in a
    // fixed-plan run.
    elapsed += px2.ChargeBoundary(final_job.name, "final");
    rest_wave =
        job_runner_.RunMapPhase(final_job, px2.view(), 0, px2.view().size());
  }
  elapsed += rest_wave.schedule.makespan;
  for (const auto& t : rest_wave.tasks) result.counters.Merge(t.counters);

  if (!final_job.reducer && final_job.reduce_stages.empty()) {
    // Map-only job: first-wave tasks' outputs first.
    first_wave.MoveOutputsTo(&result.outputs);
    rest_wave.MoveOutputsTo(&result.outputs);
    MaterializeOutputs(&result.outputs);
    result.sim_seconds += elapsed;
    result.stats = ComputeStatsWithConf(*rc, conf, 1.0);
    return result;
  }

  // The reduce retrieves outputs from both the reused first-wave tasks and
  // the new-plan map tasks.
  std::vector<const MapTaskResult*> all_map_tasks;
  for (const auto& t : first_wave.tasks) all_map_tasks.push_back(&t);
  for (const auto& t : rest_wave.tasks) all_map_tasks.push_back(&t);

  const int num_reduce = job_runner_.ResolveNumReduceTasks(final_job);
  const int reduce_slots = config_.total_reduce_slots();
  const bool try_tail_replan = !changed && !conf.tail_ops().empty() &&
                               num_reduce > reduce_slots;
  if (!try_tail_replan) {
    ReducePhaseResult reduce =
        job_runner_.RunReducePhase(final_job, all_map_tasks);
    elapsed += reduce.makespan();
    for (const auto& c : reduce.task_counters) result.counters.Merge(c);
    result.outputs = std::move(reduce.outputs);
  } else {
    // Plan change in the middle of the reduce phase (Fig. 10b): the first
    // reduce wave runs the baseline tail stages; completed outputs "move to
    // the output directory"; a better tail plan applies to the rest.
    ReducePhaseResult wave1 =
        job_runner_.RunReduceRange(final_job, all_map_tasks, 0, reduce_slots);
    elapsed += wave1.makespan();
    for (const auto& c : wave1.task_counters) result.counters.Merge(c);

    CollectedStats tail_stats = ComputeStatsWithConf(
        *rc, conf,
        static_cast<double>(num_reduce) / static_cast<double>(reduce_slots));
    JobPlan tail_plan;
    const bool tail_changed = Reoptimize(/*at_map_phase=*/false, base_plan,
                                         tail_stats, &tail_plan);
    if (!tail_changed) {
      ReducePhaseResult wave2 = job_runner_.RunReduceRange(
          final_job, all_map_tasks, reduce_slots, num_reduce);
      elapsed += wave2.makespan();
      for (const auto& c : wave2.task_counters) result.counters.Merge(c);
      result.outputs = std::move(wave1.outputs);
      for (auto& s : wave2.outputs) result.outputs.push_back(std::move(s));
    } else {
      result.replanned = true;
      result.plan.tail = tail_plan.tail;
      if (obs_ != nullptr) {
        obs_->trace().Instant("plan_switch", "plan", obs_->trace().clock(),
                              obs::kClusterTrack,
                              {{"phase", "tail"},
                               {"plan", tail_plan.ToString()}});
        obs_->metrics().Add(obs_->metrics().Counter("efind.plan_switches"),
                            1.0);
      }
      // Remaining reduce tasks run without the inline tail stages; their
      // outputs flow through the new tail pipeline.
      JobConfig bare = final_job;
      bare.reduce_stages.clear();
      ReducePhaseResult wave2 = job_runner_.RunReduceRange(
          bare, all_map_tasks, reduce_slots, num_reduce);
      elapsed += wave2.makespan();
      for (const auto& c : wave2.task_counters) result.counters.Merge(c);

      EFindRunResult sub;
      PipelineExecutor px3(&job_runner_, config_, options_, conf, tail_plan,
                           rc.get(), &tail_stats, &sub, &failover_);
      px3.RunTailPipeline(wave2.outputs);
      elapsed += sub.sim_seconds;
      for (auto& j : sub.jobs) result.jobs.push_back(j);
      result.counters.Merge(sub.counters);

      result.outputs = std::move(wave1.outputs);
      for (auto& s : sub.outputs) result.outputs.push_back(std::move(s));
    }
  }

  MaterializeOutputs(&result.outputs);
  result.sim_seconds += elapsed;
  result.stats = ComputeStatsWithConf(*rc, conf, 1.0);
  if (obs_ != nullptr) {
    RecordCostModelError(obs_, "dynamic", PlanCost(result.plan, wave_stats),
                         PlanCost(result.plan, result.stats));
  }
  return result;
}

}  // namespace efind
