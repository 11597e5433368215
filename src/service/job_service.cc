// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/job_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <queue>
#include <string>
#include <string_view>
#include <utility>

#include "obs/obs.h"
#include "reuse/materialized_store.h"

namespace efind {
namespace service {

namespace {

/// One serial step of a job's demand profile: either a pure delay (DFS
/// boundary, reuse resolve) or a task wave
/// competing for one slot pool — never both.
struct StageDemand {
  double delay = 0.0;
  std::vector<double> dur;   ///< Fault-inflated primary durations.
  std::vector<double> base;  ///< Fault-free backup durations (parallel).
  bool is_reduce = false;
};

/// The demand profile of one `EFindRunResult`, flattened from its
/// physical-job summaries in execution order.
std::vector<StageDemand> FlattenDemand(const EFindRunResult& result) {
  std::vector<StageDemand> stages;
  for (const JobStageSummary& s : result.jobs) {
    if (s.map_task_durations.empty() && s.reduce_task_durations.empty()) {
      // Pure-boundary summary (reuse adoption): replay it as a serial delay
      // of its total seconds.
      StageDemand d;
      d.delay = s.boundary_seconds + s.map_seconds + s.reduce_seconds;
      if (d.delay > 0.0) stages.push_back(std::move(d));
      continue;
    }
    if (s.boundary_seconds > 0.0) {
      StageDemand d;
      d.delay = s.boundary_seconds;
      stages.push_back(std::move(d));
    }
    if (!s.map_task_durations.empty()) {
      StageDemand d;
      d.dur = s.map_task_durations;
      d.base = s.map_task_base_durations;
      stages.push_back(std::move(d));
    }
    if (!s.reduce_task_durations.empty()) {
      StageDemand d;
      d.dur = s.reduce_task_durations;
      d.base = s.reduce_task_base_durations;
      d.is_reduce = true;
      stages.push_back(std::move(d));
    }
  }
  return stages;
}

double LowerMedian(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[(xs.size() - 1) / 2];
}

/// One executed template: demand profile plus the run's byproducts.
struct ExecutedJob {
  std::vector<StageDemand> stages;
  double sim_seconds = 0.0;
  uint64_t checksum = 0;
  Counters counters;
  std::vector<InputSplit> outputs;  ///< Kept only under keep_outputs.
};

/// The discrete-event replay. Lives for one `Run` call; borrows everything
/// from the service.
class ServiceSim {
 public:
  ServiceSim(const ClusterConfig& config, const ServiceOptions& options,
             const std::vector<std::string>& tenant_names,
             const std::vector<double>& tenant_weights,
             const std::vector<TenantQuota>& tenant_quotas,
             const std::vector<ServiceJobTemplate>& templates,
             EFindJobRunner* runner, reuse::MaterializedStore* store,
             obs::ObsSession* obs)
      : config_(config),
        options_(options),
        tenant_names_(tenant_names),
        templates_(templates),
        runner_(runner),
        store_(store),
        obs_(obs),
        free_slots_{config.total_map_slots(), config.total_reduce_slots()} {
    if (!options.journal_path.empty()) {
      // Best-effort open: an unopenable journal degrades to an
      // unjournaled run (every Append below returns FailedPrecondition).
      journal_.Open(options.journal_path, "service.wal");
    }
    for (size_t t = 0; t < tenant_names.size(); ++t) {
      admission_.AddTenant(tenant_quotas[t]);
      fair_.AddTenant(tenant_weights[t]);
      backlog_.emplace_back();
      TenantServiceStats ts;
      ts.name = tenant_names[t];
      result_.tenants.push_back(std::move(ts));
    }
  }

  ServiceResult Run(const std::vector<Arrival>& arrivals) {
    result_.jobs.resize(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
      JobOutcome& out = result_.jobs[i];
      out.tenant = arrivals[i].tenant;
      out.job_template = arrivals[i].job_template;
      out.arrival = arrivals[i].time;
      // Write-ahead: the submission is durable before the service acts on
      // it, so recovery re-enqueues anything not later marked fin/rej.
      if (journal_.is_open()) {
        char rec[128];
        std::snprintf(rec, sizeof(rec), "sub %zu %d %d %.17g", i,
                      arrivals[i].tenant, arrivals[i].job_template,
                      arrivals[i].time);
        journal_.Append(rec);
      }
      Push(arrivals[i].time, kArrival, /*id=*/0, /*job=*/-1,
           /*task=*/static_cast<int>(i), /*stage=*/-1);
    }
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      switch (ev.kind) {
        case kTaskFinish:
          if (running_.count(ev.id) != 0) HandleFinish(ev.id, ev.time);
          break;
        case kStageReady:
          StageReady(ev.job, ev.time);
          break;
        case kBackupEligible:
          HandleBackupEligible(ev.job, ev.task, ev.stage, ev.time);
          break;
        case kArrival:
          HandleArrival(ev.task, ev.time);
          break;
      }
    }
    Finalize();
    return std::move(result_);
  }

 private:
  // Event kinds in processing order at equal timestamps: completions free
  // slots before new stages/backups/arrivals contend for them.
  enum EventKind { kTaskFinish = 0, kStageReady, kBackupEligible, kArrival };

  struct Event {
    double time;
    int kind;
    uint64_t seq;   ///< Global schedule order — the deterministic tie-break.
    uint64_t id;    ///< Running-task id (kTaskFinish).
    int job;        ///< Live-job index (kStageReady / kBackupEligible).
    int task;       ///< Task index, or arrival index for kArrival.
    int stage;      ///< Stage the event was scheduled under (validation).
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      if (kind != o.kind) return kind > o.kind;
      return seq > o.seq;
    }
  };

  struct LiveJob {
    int outcome = 0;  ///< Index into result_.jobs.
    int tenant = 0;
    uint64_t admit_seq = 0;  ///< FIFO order.
    std::vector<StageDemand> stages;
    int cur = -1;
    size_t next = 0;  ///< Next undispatched task of the active stage.
    size_t done = 0;
    double median = 0.0;
    std::vector<uint64_t> primary;  ///< Running id per task (0 = none).
    std::vector<uint64_t> backup;
    std::vector<char> completed;
    bool finished = false;
  };

  struct RunningTask {
    int job = 0;
    int task = 0;
    bool is_backup = false;
    bool is_reduce = false;
    int tenant = 0;
    double start = 0.0;
    double finish = 0.0;
  };

  void Push(double time, int kind, uint64_t id, int job, int task,
            int stage) {
    events_.push(Event{time, kind, ++event_seq_, id, job, task, stage});
  }

  /// Appends one admission-lifecycle record ("adm|def|rej|fin <idx>"),
  /// write-ahead of the transition it records. Best-effort like the rest
  /// of the journal: a failed append degrades recovery, never the run.
  void JournalLifecycle(const char* verb, int arrival_idx) {
    if (!journal_.is_open()) return;
    journal_.Append(std::string(verb) + " " + std::to_string(arrival_idx));
  }

  int& FreeSlots(bool is_reduce) { return free_slots_[is_reduce ? 1 : 0]; }

  std::string JobTag(const JobOutcome& out, int submission) const {
    return "t" + std::to_string(out.job_template) + "#" +
           std::to_string(submission);
  }

  void ServiceInstant(const char* name, double time,
                      std::vector<obs::TraceArg> args) {
    if (obs_ != nullptr) {
      obs_->trace().Instant(name, "service", time, obs::kClusterTrack,
                            std::move(args));
    }
  }

  // --- admission -----------------------------------------------------------

  void HandleArrival(int arrival_idx, double now) {
    JobOutcome& out = result_.jobs[arrival_idx];
    const int t = out.tenant;
    switch (admission_.Offer(t)) {
      case AdmissionDecision::kAdmit:
        JournalLifecycle("adm", arrival_idx);
        admission_.OnAdmit(t);
        Admit(arrival_idx, now);
        break;
      case AdmissionDecision::kDefer:
        JournalLifecycle("def", arrival_idx);
        admission_.OnDefer(t);
        backlog_[t].push_back(arrival_idx);
        ServiceInstant(
            "job_deferred", now,
            {{"tenant", tenant_names_[t]},
             {"job", JobTag(out, arrival_idx)},
             {"depth", std::to_string(backlog_[t].size())}});
        break;
      case AdmissionDecision::kReject:
        JournalLifecycle("rej", arrival_idx);
        admission_.OnReject(t);
        out.rejected = true;
        ServiceInstant("job_rejected", now,
                       {{"tenant", tenant_names_[t]},
                        {"job", JobTag(out, arrival_idx)}});
        break;
    }
  }

  void Admit(int arrival_idx, double now) {
    JobOutcome& out = result_.jobs[arrival_idx];
    const int t = out.tenant;
    const ExecutedJob& ex = Execute(out.job_template, t);
    out.admit = now;
    out.isolated_seconds = ex.sim_seconds;
    out.output_checksum = ex.checksum;
    out.counters = ex.counters;
    if (options_.keep_outputs) out.outputs = ex.outputs;
    ServiceInstant("job_admitted", now,
                   {{"tenant", tenant_names_[t]},
                    {"job", JobTag(out, arrival_idx)},
                    {"wait", std::to_string(now - out.arrival)}});
    // Re-activation clamp: an idle tenant re-enters at the busy tenants'
    // virtual-time frontier instead of spending banked idleness.
    double floor = 0.0;
    bool any_active = false;
    for (const LiveJob& j : jobs_) {
      if (j.finished) continue;
      const double v = fair_.vtime(j.tenant);
      if (!any_active || v < floor) floor = v;
      any_active = true;
    }
    if (any_active) fair_.RaiseTo(t, floor);

    LiveJob job;
    job.outcome = arrival_idx;
    job.tenant = t;
    job.admit_seq = ++admit_counter_;
    job.stages = ex.stages;
    jobs_.push_back(std::move(job));
    AdvanceStage(static_cast<int>(jobs_.size()) - 1, now);
  }

  // --- execution (real data flow, admission order) -------------------------

  const ExecutedJob& Execute(int tmpl_idx, int tenant) {
    // Each distinct template executes once and its demand profile / outputs
    // replay for repeat submissions (identical by determinism) — except
    // with a reuse store attached, where runs mutate shared store state.
    const bool memoize = store_ == nullptr;
    if (memoize) {
      auto it = memo_.find(tmpl_idx);
      if (it != memo_.end()) return it->second;
    }
    const ServiceJobTemplate& tmpl = templates_[tmpl_idx];
    runner_->set_tenant(tenant_names_[tenant]);
    EFindRunResult run =
        runner_->RunWithStrategy(*tmpl.conf, *tmpl.input, tmpl.strategy);
    runner_->set_tenant(std::string());
    ExecutedJob ex;
    ex.stages = FlattenDemand(run);
    ex.sim_seconds = run.sim_seconds;
    ex.checksum = reuse::ChecksumSplits(run.outputs);
    ex.counters = std::move(run.counters);
    if (options_.keep_outputs) ex.outputs = std::move(run.outputs);
    scratch_ = std::move(ex);
    if (memoize) {
      auto [it, inserted] = memo_.emplace(tmpl_idx, std::move(scratch_));
      return it->second;
    }
    return scratch_;
  }

  // --- stage lifecycle -----------------------------------------------------

  void AdvanceStage(int j, double now) {
    LiveJob& job = jobs_[j];
    ++job.cur;
    if (job.cur >= static_cast<int>(job.stages.size())) {
      JobDone(j, now);
      return;
    }
    const StageDemand& st = job.stages[job.cur];
    if (st.delay > 0.0) {
      Push(now + st.delay, kStageReady, 0, j, -1, job.cur);
    } else {
      StageReady(j, now);
    }
  }

  void StageReady(int j, double now) {
    LiveJob& job = jobs_[j];
    const StageDemand& st = job.stages[job.cur];
    if (st.dur.empty()) {
      AdvanceStage(j, now);  // Pure delay elapsed.
      return;
    }
    job.next = 0;
    job.done = 0;
    job.median = LowerMedian(st.dur);
    job.primary.assign(st.dur.size(), 0);
    job.backup.assign(st.dur.size(), 0);
    job.completed.assign(st.dur.size(), 0);
    Dispatch(now);
  }

  /// Whether `job` has undispatched primary tasks in `pool`.
  bool Eligible(const LiveJob& job, bool pool) const {
    if (job.finished || job.cur < 0 ||
        job.cur >= static_cast<int>(job.stages.size())) {
      return false;
    }
    const StageDemand& st = job.stages[job.cur];
    return !st.dur.empty() && st.is_reduce == pool &&
           job.next < st.dur.size() &&
           job.completed.size() == st.dur.size();
  }

  /// Policy pick: the live-job index to serve next in `pool`, or -1.
  int PickJob(bool pool) const {
    int best = -1;
    if (options_.policy == SchedulePolicy::kFifo) {
      for (size_t i = 0; i < jobs_.size(); ++i) {
        if (!Eligible(jobs_[i], pool)) continue;
        if (best < 0 || jobs_[i].admit_seq < jobs_[best].admit_seq) {
          best = static_cast<int>(i);
        }
      }
      return best;
    }
    std::vector<int> tenants;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (Eligible(jobs_[i], pool)) tenants.push_back(jobs_[i].tenant);
    }
    std::sort(tenants.begin(), tenants.end());
    tenants.erase(std::unique(tenants.begin(), tenants.end()),
                  tenants.end());
    const int t = fair_.Pick(tenants);
    if (t < 0) return -1;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].tenant != t || !Eligible(jobs_[i], pool)) continue;
      if (best < 0 || jobs_[i].admit_seq < jobs_[best].admit_seq) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  void Dispatch(double now) {
    for (int pool = 0; pool < 2; ++pool) {
      const bool is_reduce = pool == 1;
      while (true) {
        const int j = PickJob(is_reduce);
        if (j < 0) break;
        if (FreeSlots(is_reduce) <= 0) {
          // A primary is waiting: reclaim a speculative slot first.
          if (!PreemptBackup(is_reduce, now)) break;
        }
        LiveJob& job = jobs_[j];
        const int task = static_cast<int>(job.next++);
        Launch(j, task, /*is_backup=*/false, now);
      }
    }
  }

  void Launch(int j, int task, bool is_backup, double now) {
    LiveJob& job = jobs_[j];
    const StageDemand& st = job.stages[job.cur];
    const double dur = is_backup ? st.base[task] : st.dur[task];
    const uint64_t id = ++task_counter_;
    RunningTask r;
    r.job = j;
    r.task = task;
    r.is_backup = is_backup;
    r.is_reduce = st.is_reduce;
    r.tenant = job.tenant;
    r.start = now;
    r.finish = now + dur;
    running_.emplace(id, r);
    (is_backup ? job.backup : job.primary)[task] = id;
    --FreeSlots(st.is_reduce);
    fair_.Charge(job.tenant, dur);
    Push(r.finish, kTaskFinish, id, j, task, job.cur);
    if (is_backup) {
      ++result_.tenants[job.tenant].backups_launched;
      return;
    }
    // Straggler candidate: a task whose fault-inflated duration overruns
    // `threshold x stage median` while a fault-free backup would do better
    // becomes backup-eligible at its overrun instant.
    if (config_.speculative_execution && job.median > 0.0) {
      const double trigger = config_.speculation_threshold * job.median;
      if (st.dur[task] > trigger && st.base[task] < st.dur[task]) {
        Push(now + trigger, kBackupEligible, 0, j, task, job.cur);
      }
    }
  }

  bool PreemptBackup(bool is_reduce, double now) {
    // Victim: the youngest backup in the pool; under fair-share, from the
    // most-served tenant (max virtual time) among backup holders.
    uint64_t victim = 0;
    for (const auto& [id, r] : running_) {
      if (!r.is_backup || r.is_reduce != is_reduce) continue;
      if (victim == 0) {
        victim = id;
        continue;
      }
      const RunningTask& v = running_.at(victim);
      if (options_.policy == SchedulePolicy::kFairShare) {
        const double rv = fair_.vtime(r.tenant);
        const double vv = fair_.vtime(v.tenant);
        if (rv > vv || (rv == vv && id > victim)) victim = id;
      } else if (id > victim) {
        victim = id;
      }
    }
    if (victim == 0) return false;
    const RunningTask r = running_.at(victim);
    running_.erase(victim);
    ++FreeSlots(is_reduce);
    LiveJob& job = jobs_[r.job];
    job.backup[r.task] = 0;
    fair_.Refund(r.tenant, r.finish - now);  // Unconsumed charge.
    result_.tenants[r.tenant].slot_seconds += now - r.start;
    ++result_.tenants[r.tenant].backups_preempted;
    ServiceInstant("backup_preempted", now,
                   {{"tenant", tenant_names_[r.tenant]},
                    {"job", JobTag(result_.jobs[job.outcome], job.outcome)},
                    {"task", std::to_string(r.task)}});
    return true;
  }

  void HandleBackupEligible(int j, int task, int stage, double now) {
    LiveJob& job = jobs_[j];
    if (job.finished || job.cur != stage || job.completed[task] != 0 ||
        job.backup[task] != 0 || job.primary[task] == 0) {
      return;
    }
    const StageDemand& st = job.stages[job.cur];
    if (FreeSlots(st.is_reduce) <= 0) return;  // Backups never preempt.
    // Waiting primaries outrank speculation for the free slot.
    for (const LiveJob& other : jobs_) {
      if (Eligible(other, st.is_reduce)) return;
    }
    Launch(j, task, /*is_backup=*/true, now);
  }

  void HandleFinish(uint64_t id, double now) {
    const RunningTask r = running_.at(id);
    running_.erase(id);
    ++FreeSlots(r.is_reduce);
    result_.tenants[r.tenant].slot_seconds += now - r.start;
    LiveJob& job = jobs_[r.job];
    if (job.completed[r.task] == 0) {
      job.completed[r.task] = 1;
      ++job.done;
      if (r.is_backup) ++result_.tenants[r.tenant].backup_wins;
      // Kill the slower copy: its slot frees now, not at its own finish.
      const uint64_t other =
          r.is_backup ? job.primary[r.task] : job.backup[r.task];
      if (other != 0 && running_.count(other) != 0) {
        const RunningTask o = running_.at(other);
        running_.erase(other);
        ++FreeSlots(o.is_reduce);
        fair_.Refund(o.tenant, o.finish - now);
        result_.tenants[o.tenant].slot_seconds += now - o.start;
      }
      job.primary[r.task] = 0;
      job.backup[r.task] = 0;
      if (job.done == job.stages[job.cur].dur.size()) {
        AdvanceStage(r.job, now);
      }
    }
    Dispatch(now);
  }

  // --- completion ----------------------------------------------------------

  void JobDone(int j, double now) {
    LiveJob& job = jobs_[j];
    JournalLifecycle("fin", job.outcome);
    job.finished = true;
    JobOutcome& out = result_.jobs[job.outcome];
    out.finish = now;
    TenantServiceStats& ts = result_.tenants[job.tenant];
    ++ts.finished;
    ts.total_latency += out.latency();
    ts.total_slowdown += out.slowdown();
    result_.counters.Merge(out.counters);
    if (now > result_.makespan) result_.makespan = now;
    if (obs_ != nullptr) {
      obs_->trace().Span(
          "service_job", "service", out.arrival, out.latency(),
          obs::kClusterTrack, 0,
          {{"tenant", tenant_names_[job.tenant]},
           {"job", JobTag(out, job.outcome)},
           {"policy", options_.policy == SchedulePolicy::kFifo ? "fifo"
                                                               : "fair"}});
    }
    admission_.OnFinish(job.tenant);
    // Freed quota promotes the tenant's oldest deferred submission; its
    // backlog wait is charged to the job as queue time.
    if (!backlog_[job.tenant].empty() && admission_.CanAdmit(job.tenant)) {
      const int arrival_idx = backlog_[job.tenant].front();
      backlog_[job.tenant].erase(backlog_[job.tenant].begin());
      admission_.OnPromote(job.tenant);
      Admit(arrival_idx, now);
    }
  }

  void Finalize() {
    for (size_t t = 0; t < result_.tenants.size(); ++t) {
      result_.tenants[t].deferred =
          admission_.stats(static_cast<int>(t)).deferred;
    }
    if (obs_ != nullptr) {
      obs::MetricsRegistry& mx = obs_->metrics();
      double finished = 0.0, launched = 0.0, preempted = 0.0, wins = 0.0;
      for (const auto& ts : result_.tenants) {
        finished += static_cast<double>(ts.finished);
        launched += static_cast<double>(ts.backups_launched);
        preempted += static_cast<double>(ts.backups_preempted);
        wins += static_cast<double>(ts.backup_wins);
        mx.Set(mx.Gauge("service.tenant." + ts.name + ".slot_seconds"),
               ts.slot_seconds);
      }
      mx.Add(mx.Counter("service.jobs_finished"), finished);
      mx.Add(mx.Counter("service.backups_launched"), launched);
      mx.Add(mx.Counter("service.backups_preempted"), preempted);
      mx.Add(mx.Counter("service.backup_wins"), wins);
    }
  }

  const ClusterConfig& config_;
  const ServiceOptions& options_;
  const std::vector<std::string>& tenant_names_;
  const std::vector<ServiceJobTemplate>& templates_;
  EFindJobRunner* runner_;
  reuse::MaterializedStore* store_;
  obs::ObsSession* obs_;

  durable::WriteAheadJournal journal_;
  AdmissionController admission_;
  FairShareScheduler fair_;
  std::vector<std::vector<int>> backlog_;  ///< Deferred arrival indices.

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events_;
  uint64_t event_seq_ = 0;
  uint64_t task_counter_ = 0;
  uint64_t admit_counter_ = 0;
  int free_slots_[2];
  std::vector<LiveJob> jobs_;
  std::map<uint64_t, RunningTask> running_;

  std::map<int, ExecutedJob> memo_;  ///< Template index -> first execution.
  ExecutedJob scratch_;              ///< Last unmemoized execution.

  ServiceResult result_;
};

}  // namespace

std::vector<double> ServiceResult::Latencies(int tenant) const {
  std::vector<double> out;
  for (const JobOutcome& j : jobs) {
    if (j.rejected || j.finish < 0.0) continue;
    if (tenant >= 0 && j.tenant != tenant) continue;
    out.push_back(j.latency());
  }
  return out;
}

std::vector<double> ServiceResult::Slowdowns(int tenant) const {
  std::vector<double> out;
  for (const JobOutcome& j : jobs) {
    if (j.rejected || j.finish < 0.0) continue;
    if (tenant >= 0 && j.tenant != tenant) continue;
    out.push_back(j.slowdown());
  }
  return out;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 1.0) return xs.back();
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

JobService::JobService(const ClusterConfig& config,
                       const ServiceOptions& options)
    : config_(config), options_(options), runner_(config, options.efind) {}

int JobService::AddTenant(const std::string& name, double weight,
                          const TenantQuota& quota) {
  tenant_names_.push_back(name);
  tenant_weights_.push_back(weight);
  tenant_quotas_.push_back(quota);
  return static_cast<int>(tenant_names_.size()) - 1;
}

int JobService::AddTemplate(const ServiceJobTemplate& t) {
  templates_.push_back(t);
  return static_cast<int>(templates_.size()) - 1;
}

void JobService::set_store(reuse::MaterializedStore* store) {
  store_ = store;
  runner_.set_reuse(store);
}

ServiceResult JobService::Run(const std::vector<Arrival>& arrivals) {
  ServiceSim sim(config_, options_, tenant_names_, tenant_weights_,
                 tenant_quotas_, templates_, &runner_, store_, obs_);
  return sim.Run(arrivals);
}

ServiceRecovery JobService::Recover(const std::string& journal_path) {
  ServiceRecovery recovery;
  // Submission index -> (arrival, settled?). A submission is settled once
  // a fin or rej record lands; everything else — admitted mid-flight,
  // deferred, or never offered — is pending work the restart must redo.
  std::map<uint64_t, std::pair<Arrival, bool>> subs;
  const durable::WriteAheadJournal::ReplayResult replay =
      durable::WriteAheadJournal::Replay(
          journal_path, [&](std::string_view record) {
            const std::string line(record);
            unsigned long long idx = 0;
            int tenant = 0, tmpl = 0;
            double time = 0.0;
            if (std::sscanf(line.c_str(), "sub %llu %d %d %lg", &idx,
                            &tenant, &tmpl, &time) == 4) {
              Arrival a;
              a.time = time;
              a.tenant = tenant;
              a.job_template = tmpl;
              subs[idx] = {a, false};
              ++recovery.submitted;
            } else if (std::sscanf(line.c_str(), "fin %llu", &idx) == 1) {
              auto it = subs.find(idx);
              if (it != subs.end()) it->second.second = true;
              ++recovery.finished;
            } else if (std::sscanf(line.c_str(), "rej %llu", &idx) == 1) {
              auto it = subs.find(idx);
              if (it != subs.end()) it->second.second = true;
              ++recovery.rejected;
            }
            // adm/def records carry no recovery action: both states still
            // owe the tenant a finished job.
          });
  recovery.found = replay.found;
  recovery.records = replay.records;
  recovery.torn_tail = replay.torn_tail;
  for (const auto& [idx, sub] : subs) {
    if (!sub.second) recovery.pending.push_back(sub.first);
  }
  return recovery;
}

}  // namespace service
}  // namespace efind
