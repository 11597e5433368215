// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Multi-tenant job service (DESIGN.md §14): admission control, fair-share
// scheduling, and cross-tenant artifact reuse on top of the EFind runtime.
//
// The service separates *what a job computes* from *when its tasks get
// cluster slots*:
//
//  - At admission each job executes its real data flow once through a
//    shared `EFindJobRunner` (outputs, counters, and any reuse-store
//    traffic are produced here, in admission order — bit-identical for any
//    thread count by the engine's determinism contract). The run yields
//    the job's demand profile: per physical job, the DFS boundary delay
//    plus the per-task durations of its map and reduce phases
//    (`JobStageSummary`).
//  - A discrete-event scheduler then replays every live job's demand
//    against the cluster's slot pools, interleaving waves from many jobs
//    under FIFO or weighted fair-share, with speculative backups that are
//    preempted first whenever a primary task waits for a slot. For a lone
//    job this replay reproduces `ScheduleWaves`' FIFO list scheduling, so
//    single-job service latency equals the direct run's `sim_seconds` up
//    to FP associativity of the event clock (~1 ULP; asserted by
//    bench_service, speculation off) with bit-identical bytes.
//
// Everything here is orchestration-thread-only and deterministic: a fixed
// arrival seed yields bit-identical outputs, counters, latencies, and
// traces at threads=1 and threads=N.

#ifndef EFIND_SERVICE_JOB_SERVICE_H_
#define EFIND_SERVICE_JOB_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/wal.h"
#include "efind/efind_job_runner.h"
#include "mapreduce/counters.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/fair_share.h"

namespace efind {

namespace obs {
class ObsSession;
}  // namespace obs

namespace service {

enum class SchedulePolicy {
  kFifo,       ///< Earliest-admitted job first (no tenant isolation).
  kFairShare,  ///< Weighted fair-share over tenant slot-seconds.
};

/// One reusable job description; arrivals reference templates by index.
/// `conf` and `input` are borrowed and must outlive the service.
struct ServiceJobTemplate {
  const IndexJobConf* conf = nullptr;
  const std::vector<InputSplit>* input = nullptr;
  Strategy strategy = Strategy::kLookupCache;
};

struct ServiceOptions {
  SchedulePolicy policy = SchedulePolicy::kFairShare;
  /// Runner knobs shared by every job execution (threads, cache size, ...).
  EFindOptions efind;
  /// Keep every job's output splits in its outcome record (memory-heavy;
  /// tests only — checksums are always kept).
  bool keep_outputs = false;
  /// When non-empty, every submission and its admission-lifecycle
  /// transitions (admit / defer / reject / finish) are appended to a
  /// write-ahead journal at this path (crash site "service.wal") before
  /// they take effect, so `JobService::Recover` can re-enqueue every
  /// submitted-but-unfinished job after a crash.
  std::string journal_path;
};

/// One submission's life through the service, in submission order.
struct JobOutcome {
  int tenant = 0;
  int job_template = 0;
  double arrival = 0.0;
  double admit = -1.0;   ///< Admission instant (backlog wait = admit-arrival).
  double finish = -1.0;  ///< Completion instant; < 0 when rejected.
  bool rejected = false;
  /// The template's uncontended run time (`EFindRunResult::sim_seconds`) —
  /// the denominator of this job's slowdown.
  double isolated_seconds = 0.0;
  /// `ChecksumSplits` digest of the job's output splits.
  uint64_t output_checksum = 0;
  /// Merged run counters of this job's execution.
  Counters counters;
  /// Output splits; populated only under `ServiceOptions::keep_outputs`.
  std::vector<InputSplit> outputs;

  double latency() const { return finish - arrival; }
  double slowdown() const {
    return isolated_seconds > 0.0 ? latency() / isolated_seconds : 1.0;
  }
};

/// Per-tenant accounting of the service sim. Lookup-cache and reuse traffic
/// live in each job's `JobOutcome::counters`, and admission outcomes in
/// `AdmissionController::stats`.
struct TenantServiceStats {
  std::string name;
  /// Submissions that waited in the backlog (the admission stats' count).
  uint64_t deferred = 0;
  uint64_t finished = 0;
  /// Slot-seconds actually served (primaries + backup copies, including
  /// the truncated occupancy of preempted/cancelled backups).
  double slot_seconds = 0.0;
  double total_latency = 0.0;
  double total_slowdown = 0.0;
  /// Service-level speculation on this tenant's tasks.
  uint64_t backups_launched = 0;
  uint64_t backup_wins = 0;
  uint64_t backups_preempted = 0;
};

struct ServiceResult {
  std::vector<JobOutcome> jobs;  ///< Submission order (incl. rejected).
  std::vector<TenantServiceStats> tenants;
  double makespan = 0.0;  ///< Last finish instant on the service clock.
  /// Counters merged across every finished job's run.
  Counters counters;

  /// Finished-job latencies of one tenant (or all tenants, tenant < 0),
  /// in submission order.
  std::vector<double> Latencies(int tenant = -1) const;
  /// As above but normalized by each job's uncontended runtime.
  std::vector<double> Slowdowns(int tenant = -1) const;
};

/// p-th percentile (0..1) by nearest-rank on a sorted copy; 0 when empty.
double Percentile(std::vector<double> xs, double p);

/// The backlog a crashed service run leaves behind, replayed from its
/// write-ahead journal: every submission that neither finished nor was
/// rejected — whether admitted, deferred, or never yet offered — with its
/// original arrival time, tenant, and template, in submission order.
/// Re-running these arrivals through a fresh `JobService` loses no
/// admitted work.
struct ServiceRecovery {
  bool found = false;      ///< The journal file existed.
  uint64_t records = 0;    ///< Intact frames replayed.
  bool torn_tail = false;  ///< Replay stopped at a torn frame.
  uint64_t submitted = 0;  ///< `sub` records seen.
  uint64_t finished = 0;   ///< `fin` records seen.
  uint64_t rejected = 0;   ///< `rej` records seen.
  std::vector<Arrival> pending;
};

/// The multi-tenant job service. Single-threaded orchestration object —
/// job *internals* parallelize through the runner's pool, the service
/// itself must not be shared across threads.
class JobService {
 public:
  JobService(const ClusterConfig& config, const ServiceOptions& options);

  /// Registers a tenant; returns its index (referenced by arrivals).
  int AddTenant(const std::string& name, double weight,
                const TenantQuota& quota);
  /// Registers a job template; returns its index.
  int AddTemplate(const ServiceJobTemplate& t);

  /// Attaches the shared cross-job artifact store (null detaches). Store
  /// traffic is attributed to the submitting tenant; a hit on another
  /// tenant's artifact surfaces as `efind.reuse.cross_tenant_hits`.
  void set_store(reuse::MaterializedStore* store);
  /// Attaches an observability session: the service emits `service`-
  /// category spans/instants (admission, deferral, rejection, backup
  /// preemption, one span per job) on the service clock. The runner's own
  /// tracing stays detached during service runs — the two clocks differ.
  void set_obs(obs::ObsSession* session) { obs_ = session; }

  /// Runs the full submission schedule to completion.
  ServiceResult Run(const std::vector<Arrival>& arrivals);

  /// Replays the write-ahead journal a crashed `Run` (with
  /// `ServiceOptions::journal_path` set) left at `journal_path`.
  static ServiceRecovery Recover(const std::string& journal_path);

  const ClusterConfig& config() const { return config_; }
  const ServiceOptions& options() const { return options_; }

 private:
  ClusterConfig config_;
  ServiceOptions options_;
  /// Shared executor: every admitted job's data flow runs through it, so
  /// reuse-store state evolves in admission order.
  EFindJobRunner runner_;
  std::vector<std::string> tenant_names_;
  std::vector<double> tenant_weights_;
  std::vector<TenantQuota> tenant_quotas_;
  std::vector<ServiceJobTemplate> templates_;
  reuse::MaterializedStore* store_ = nullptr;
  obs::ObsSession* obs_ = nullptr;
};

}  // namespace service
}  // namespace efind

#endif  // EFIND_SERVICE_JOB_SERVICE_H_
