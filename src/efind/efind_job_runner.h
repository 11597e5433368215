// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_EFIND_JOB_RUNNER_H_
#define EFIND_EFIND_EFIND_JOB_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "efind/failover.h"
#include "efind/index_operator.h"
#include "efind/optimizer.h"
#include "efind/plan.h"
#include "efind/statistics.h"
#include "mapreduce/job_runner.h"

namespace efind {

namespace reuse {
class MaterializedStore;
}  // namespace reuse

/// Where a re-partitioned operator's remaining stages run relative to the
/// extra job's boundary (Fig. 7 placements); kAuto lets the cost model pick.
enum class BoundaryPolicy { kAuto, kForcePre, kForcePost };

/// Runtime knobs for the EFind-enhanced system.
struct EFindOptions {
  /// Lookup-cache entries per node (paper: "The lookup cache contains up to
  /// 1024 index key-value entries").
  size_t cache_capacity = 1024;
  /// Algorithm 1's variance gate: re-optimize only when every tracked
  /// statistic's sample mean is trustworthy — relative standard error
  /// (stddev / mean / sqrt(tasks)) below this (the paper's 0.05, applied
  /// to the mean per its central-limit-theorem argument in §4.2).
  double variance_threshold = 0.1;
  /// Minimum estimated per-machine improvement (seconds) that justifies a
  /// plan change (Algorithm 1 line 10, `planChangeCost`).
  double plan_change_cost_sec = 0.02;
  /// Job-boundary placement for shuffle strategies (ablation knob).
  BoundaryPolicy boundary_policy = BoundaryPolicy::kAuto;
  /// Skew-aware re-partitioning (DESIGN.md §12): salted sub-partitions a
  /// detected heavy-hitter key is spread across (>= 2 to take effect).
  int salt_fanout = 8;
  /// Minimum share of an operator's lookup-key stream a single key must
  /// hold for the SkewDetector to flag it hot (also guarded against the
  /// uniform share implied by the FM distinct estimate).
  double hot_key_threshold = 0.05;
  /// Worker threads for task execution. 0 (default) resolves via
  /// EFIND_THREADS, else hardware concurrency; results are bit-identical
  /// for any value (see JobRunner::set_num_threads).
  int threads = 0;
};

/// Statistics snapshot for every operator of a job, parallel to the conf's
/// head/body/tail lists.
struct CollectedStats {
  std::vector<OperatorStats> head;
  std::vector<OperatorStats> body;
  std::vector<OperatorStats> tail;

  /// The operator statistics at `pos`.
  std::vector<OperatorStats>& at(OperatorPosition pos) {
    return pos == OperatorPosition::kHead   ? head
           : pos == OperatorPosition::kBody ? body
                                            : tail;
  }
  const std::vector<OperatorStats>& at(OperatorPosition pos) const {
    return pos == OperatorPosition::kHead   ? head
           : pos == OperatorPosition::kBody ? body
                                            : tail;
  }
};

/// Execution summary of one physical MapReduce job in an EFind pipeline.
struct JobStageSummary {
  std::string name;
  double map_seconds = 0.0;
  double reduce_seconds = 0.0;
  /// DFS store/retrieve time charged at the boundary *into* this job.
  double boundary_seconds = 0.0;
  size_t map_tasks = 0;
  size_t reduce_tasks = 0;
  /// Per-task demand profile (fault-inflated durations and their fault-free
  /// speculative-backup counterparts), parallel per phase. The multi-tenant
  /// job service replays these at task granularity to interleave waves from
  /// many live jobs (DESIGN.md §14). Empty for pure-boundary summaries
  /// (reuse adoptions).
  std::vector<double> map_task_durations;
  std::vector<double> map_task_base_durations;
  std::vector<double> reduce_task_durations;
  std::vector<double> reduce_task_base_durations;
};

/// Result of running an EFind-enhanced job.
struct EFindRunResult {
  std::vector<InputSplit> outputs;
  /// Total simulated wall time across all physical jobs and boundaries.
  double sim_seconds = 0.0;
  /// The plan in effect at the end of the run.
  JobPlan plan;
  /// Dynamic mode: whether Algorithm 1 changed the plan mid-job.
  bool replanned = false;
  /// Dynamic mode: simulated time of the statistics (first-wave) phase.
  double stats_wave_seconds = 0.0;
  std::vector<JobStageSummary> jobs;
  Counters counters;
  /// Operator statistics observed during the run.
  CollectedStats stats;

  std::vector<Record> CollectRecords() const {
    std::vector<Record> all;
    for (const auto& s : outputs) s.AppendRecordsTo(&all);
    return all;
  }
};

/// The EFind-enhanced MapReduce runtime (paper Fig. 8): plan implementer,
/// statistics collection, and the adaptive job optimizer.
///
/// Modes:
///  - `RunWithPlan` / `RunWithStrategy`: execute a fixed plan (the per-
///    strategy experiment bars).
///  - `CollectStatistics` + `PlanFromStats` + `RunWithPlan`: static
///    optimization with sufficient statistics ("Optimized").
///  - `RunDynamic`: start with baseline, collect statistics during the
///    first map wave, re-optimize per Algorithm 1, change the plan mid-job
///    reusing completed tasks ("Dynamic", Figures 9-10).
class EFindJobRunner {
 public:
  explicit EFindJobRunner(const ClusterConfig& config,
                          const EFindOptions& options = {});

  /// Attaches an observability session (null detaches): the underlying
  /// JobRunner emits phase/task spans, pipeline execution adds DFS-boundary
  /// spans, lookup-stage instrumentation, Algorithm-1 plan-switch instants,
  /// and cost-model predicted-vs-actual gauges (DESIGN.md §8). Purely
  /// additive — results and simulated times are unchanged.
  void set_obs(obs::ObsSession* session) {
    obs_ = session;
    job_runner_.set_obs(session);
  }
  obs::ObsSession* obs() const { return obs_; }

  /// Attaches a cross-job materialized-artifact store (null detaches;
  /// DESIGN.md §9). With a store attached, plan expansion resolves each
  /// operator's first re-partitioning shuffle against the store (a hit
  /// adopts the stored splits instead of running the shuffle job) and
  /// publishes fresh shuffle outputs back; `PlanFromStats` annotates the
  /// statistics so the cost model prices reuse. The store is not owned and
  /// is only touched from the orchestration thread. Dynamic mode
  /// (`RunDynamic`) never touches the store: its re-planned pipelines run
  /// over partial inputs, whose shuffle outputs are not the full-input
  /// artifact.
  void set_reuse(reuse::MaterializedStore* store) { reuse_ = store; }
  reuse::MaterializedStore* reuse() const { return reuse_; }

  /// Names the tenant on whose behalf subsequent runs execute (empty — the
  /// default — keeps runs untenanted). Purely an accounting identity: store
  /// publishes are owned by the tenant, resolves are attributed to it, and
  /// a hit on another tenant's artifact lands in `efind.reuse.cross_tenant_
  /// hits` (fingerprints stay tenant-agnostic, so same fingerprint ⇒ hit
  /// regardless of tenant). Outputs, plans, and simulated times never
  /// depend on the tenant name.
  void set_tenant(const std::string& tenant) { tenant_ = tenant; }
  const std::string& tenant() const { return tenant_; }

  /// Executes `conf` under a fixed `plan`. `stats_hint`, when provided,
  /// informs the re-partitioning boundary placement (Fig. 7).
  EFindRunResult RunWithPlan(const IndexJobConf& conf,
                             const std::vector<InputSplit>& input,
                             const JobPlan& plan,
                             const CollectedStats* stats_hint = nullptr);

  /// Executes with every index using `strategy` (downgraded per-index when
  /// infeasible; see MakeUniformPlan).
  EFindRunResult RunWithStrategy(const IndexJobConf& conf,
                                 const std::vector<InputSplit>& input,
                                 Strategy strategy);

  /// Runs the job once under the baseline plan purely to gather Table-1
  /// statistics (the timing result is discarded by "Optimized" callers).
  CollectedStats CollectStatistics(const IndexJobConf& conf,
                                   const std::vector<InputSplit>& input);

  /// Cost-based plan from collected statistics (static optimization).
  /// When a reuse store is attached and `input` is provided, the statistics
  /// are first annotated with which artifacts the store can serve for this
  /// (conf, input) pair, letting the optimizer choose between fresh
  /// execution, run-and-materialize, and reuse (DESIGN.md §9).
  JobPlan PlanFromStats(const IndexJobConf& conf, const CollectedStats& stats,
                        const std::vector<InputSplit>* input = nullptr) const;

  /// Adaptive execution per Algorithm 1.
  EFindRunResult RunDynamic(const IndexJobConf& conf,
                            const std::vector<InputSplit>& input);

  const ClusterConfig& config() const { return config_; }
  const EFindOptions& options() const { return options_; }
  const Optimizer& optimizer() const { return optimizer_; }
  /// The host-availability model the run executes under (derived from the
  /// config's fault knobs; no faults when none are configured).
  const HostAvailability& availability() const { return avail_; }

  /// Per-run statistics collectors (public so the internal pipeline
  /// executor can reach it; not part of the user-facing API).
  struct RunContext;

 private:

  /// Fresh statistics collectors for every operator of `conf`.
  std::unique_ptr<RunContext> MakeRunContext(const IndexJobConf& conf) const;
  /// Table-1 statistics for every operator, with accessor capability flags.
  CollectedStats ComputeStatsWithConf(const RunContext& rc,
                                      const IndexJobConf& conf,
                                      double extrapolation) const;
  /// Sets `IndexStats::artifact_repart` / `artifact_idxloc` for every index
  /// whose first-shuffle artifact is live and reachable in the attached
  /// store (no-op without a store).
  void AnnotateReuse(const IndexJobConf& conf, uint64_t dataset_fp,
                     CollectedStats* stats) const;
  /// Gate + optimize + compare, per Algorithm 1. Returns true and fills
  /// `*new_plan` when the plan should change.
  bool Reoptimize(bool at_map_phase, const JobPlan& current,
                  const CollectedStats& stats, JobPlan* new_plan) const;
  /// Cost-model estimate (per-machine seconds) of `plan` over the operators
  /// with valid statistics in `stats` — the quantity Algorithm 1 compares;
  /// used for the predicted-vs-actual observability gauges.
  double PlanCost(const JobPlan& plan, const CollectedStats& stats) const;

  ClusterConfig config_;
  EFindOptions options_;
  obs::ObsSession* obs_ = nullptr;
  JobRunner job_runner_;
  Optimizer optimizer_;
  /// Host fault model, service-level fault model, and lookup charger shared
  /// by every run of this runner (all reference `config_`, which outlives
  /// them; `faults_` also borrows `avail_`, declared above it).
  HostAvailability avail_;
  FaultModel faults_;
  LookupFailover failover_;
  reuse::MaterializedStore* reuse_ = nullptr;
  std::string tenant_;
};

}  // namespace efind

#endif  // EFIND_EFIND_EFIND_JOB_RUNNER_H_
