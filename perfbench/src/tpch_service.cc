// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// tpch_service: three tenants submit a seeded stream of TPC-H jobs to the
// multi-tenant job service under fair share. Each op is one
// `JobService::Run` with a fresh shared reuse store and the admission
// journal on. The stream mixes Q3 under re-partitioning, the Q3 follow-up
// (which shares Q3's first shuffle, so it is a reuse hit) and Q9 under the
// lookup cache (a reuse miss). It loads the repartition shuffle, KV
// lookups, reuse publish and resolve, the service simulation and WAL
// fsyncs; it never touches the packed store or the cloud service.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/wave_scheduler.h"
#include "common/durable.h"
#include "common/wal.h"
#include "efind/efind_job_runner.h"
#include "harness.h"
#include "reuse/materialized_store.h"
#include "service/arrival.h"
#include "service/job_service.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using efind::service::Arrival;

constexpr int kTenants = 3;
constexpr int kJobsPerTenant = 4;
constexpr uint64_t kReuseCapacity = 1ULL << 32;

class TpchService : public Workload {
 public:
  explicit TpchService(const WorkloadParams& params) : params_(params) {
    tpch_.num_orders = 3000;
    tpch_.num_splits = 48;
    tpch_.seed = MixSeed(params.seed, 0x79c4);
    efind_.threads = params.threads;
    quota_.max_in_system = 2;  // A third queued job per tenant is deferred.
  }

  ConfigEcho Config() const override {
    return {{"orders", std::to_string(tpch_.num_orders)},
            {"lineitems", std::to_string(lineitems_)},
            {"splits", std::to_string(tpch_.num_splits)},
            {"generator_seed", std::to_string(tpch_.seed)},
            {"tenants", std::to_string(kTenants)},
            {"jobs_per_op", std::to_string(kTenants * kJobsPerTenant)},
            {"templates", "q3:repart,q3_followup:repart,q9:cache"},
            {"policy", "fair_share"},
            {"max_in_system", std::to_string(quota_.max_in_system)},
            {"arrival_rate_per_tenant", std::to_string(rate_)},
            {"reuse_capacity_bytes", std::to_string(kReuseCapacity)},
            {"journal", "on"},
            {"cluster_nodes", std::to_string(config_.num_nodes)},
            {"op", "JobService::Run, fresh MaterializedStore and journal"}};
  }

  int OpsFor(int seconds) const override { return std::max(12, 3 * seconds); }

  bool Setup(Tracer* tracer, std::string* error) override {
    {
      ScopedSpan span(tracer, "workloads.Generate");
      data_ = efind::GenerateTpch(tpch_, config_.num_nodes);
      confs_ = {efind::MakeTpchQ3Job(data_),
                efind::MakeTpchQ3FollowupJob(data_),
                efind::MakeTpchQ9Job(data_)};
    }
    for (const auto& split : data_.lineitem) lineitems_ += split.records.size();
    if (lineitems_ == 0) {
      *error = "empty LineItem table";
      return false;
    }
    // References: each template run directly, with no reuse store.
    ScopedSpan span(tracer, "reference.RunWithStrategy");
    efind::EFindJobRunner runner(config_, efind_);
    for (size_t t = 0; t < confs_.size(); ++t) {
      efind::EFindRunResult r =
          runner.RunWithStrategy(confs_[t], data_.lineitem, kStrategies[t]);
      reference_.push_back(efind::reuse::ChecksumSplits(r.outputs));
      reference_jobs_.push_back(std::move(r.jobs));
      isolated_sim_.push_back(r.sim_seconds);
    }
    // Calibrated like the repository's service bench (bench_service.cc):
    // every tenant submits about 3 jobs per runtime of the biggest job, an
    // overload in which jobs arrive faster than they finish, so admission
    // deferral and fair share have work to do. The service executes each
    // job's data flow once whatever the load, so the load moves simulated
    // time only.
    rate_ = 3.0 /
            *std::max_element(isolated_sim_.begin(), isolated_sim_.end());
    return true;
  }

  OpOutcome RunOp(int op, Tracer* tracer,
                  efind::obs::ObsSession* obs) override {
    std::vector<Arrival> arrivals = efind::service::GenerateArrivals(
        std::vector<efind::service::TenantArrivalSpec>(
            kTenants, {rate_, kJobsPerTenant, {}}),
        MixSeed(params_.seed, static_cast<uint64_t>(op)));
    // Templates round-robin in arrival order: every op holds the same mix
    // and its first job is Q3, so each follow-up finds Q3's artifact.
    for (size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i].job_template = static_cast<int>(i % confs_.size());
    }

    const std::string dir = params_.dir + "/op" + std::to_string(op);
    fs::remove_all(dir);
    fs::create_directories(dir);
    efind::service::ServiceOptions options;
    options.policy = efind::service::SchedulePolicy::kFairShare;
    options.efind = efind_;
    options.journal_path = dir + "/admission.wal";

    OpOutcome out;
    efind::service::ServiceResult result;
    const efind::durable::DurableStats before =
        efind::durable::GetDurableStats();
    out.cost = Measure([&] {
      ScopedSpan span(tracer, "service.JobService::Run", op);
      efind::reuse::MaterializedStore reuse(kReuseCapacity, config_.num_nodes);
      const bool journaled = reuse.AttachJournal(dir + "/reuse.wal").ok();
      efind::service::JobService service(config_, options);
      for (int t = 0; t < kTenants; ++t) {
        service.AddTenant("tenant" + std::to_string(t), 1.0, quota_);
      }
      for (size_t t = 0; t < confs_.size(); ++t) {
        service.AddTemplate({&confs_[t], &data_.lineitem, kStrategies[t]});
      }
      service.set_store(&reuse);
      service.set_obs(obs);
      result = service.Run(arrivals);
      if (!journaled) ++out.failures;
    });
    const efind::durable::DurableStats after =
        efind::durable::GetDurableStats();
    out.durable_fsyncs = static_cast<double>(after.fsyncs - before.fsyncs);
    out.durable_commit_bytes =
        static_cast<double>(after.commit_bytes - before.commit_bytes);
    out.wal_records = static_cast<double>(
        efind::service::JobService::Recover(options.journal_path).records +
        efind::reuse::MaterializedStore::RecoverJournal(dir + "/reuse.wal")
            .records);
    fs::remove_all(dir);

    for (const efind::service::JobOutcome& job : result.jobs) {
      // The service keeps each job's `ChecksumSplits` digest; the
      // references are the same digest of the direct runs.
      const uint64_t digest = job.output_checksum;
      out.digests.push_back(digest);
      out.job_sim_s.push_back(job.latency());
      out.queue_wait_s.push_back(job.admit - job.arrival);
      out.input_records += lineitems_;
      if (job.rejected || digest != reference_[job.job_template]) {
        ++out.failures;
      }
    }
    if (result.jobs.size() != arrivals.size()) ++out.failures;
    for (const auto& tenant : result.tenants) {
      out.deferred += static_cast<double>(tenant.deferred);
    }
    if (CounterSum(result.counters, "efind.", ".lookup_errors") > 0) {
      ++out.failures;
    }
    out.counters = std::move(result.counters);
    return out;
  }

  void MeasureLayers(const std::vector<OpOutcome>&, Tracer* tracer,
                     Metrics* out) override {
    // KV lookups: Q3's Orders probes, one per lineitem.
    std::vector<std::string> order_keys;
    for (const auto& split : data_.lineitem) {
      for (const auto& r : split.records) {
        order_keys.push_back("O" + r.value.substr(0, r.value.find('|')));
      }
    }
    std::vector<efind::IndexValue> values;
    (*out)["kvstore.get_us_p50"] = ChunkedMedianUs(
        tracer, "kvstore.KvStore::Get", order_keys.size(), 1000,
        [&](size_t i) { data_.orders->Get(order_keys[i], &values).ok(); });

    // Wave scheduling of each template's physical jobs, as the service
    // replays them.
    const int map_slots = config_.num_nodes * config_.map_slots_per_node;
    const int reduce_slots = config_.num_nodes * config_.reduce_slots_per_node;
    for (int rep = 0; rep < 50; ++rep) {
      for (const auto& jobs : reference_jobs_) {
        ScopedSpan span(tracer, "cluster.ScheduleWaves");
        for (const efind::JobStageSummary& job : jobs) {
          efind::ScheduleWaves(job.map_task_durations, map_slots);
          efind::ScheduleWaves(job.reduce_task_durations, reduce_slots);
        }
      }
    }
    (*out)["cluster.schedule_us_per_job"] =
        Median(tracer->SelfSecondsOf("cluster.ScheduleWaves")) * 1e6;

    // Reuse store: publish and resolve an artifact the size of the op's
    // shuffle input.
    efind::HostAvailability availability(config_);
    for (int rep = 0; rep < 5; ++rep) {
      efind::reuse::MaterializedStore store(kReuseCapacity, config_.num_nodes);
      std::vector<efind::InputSplit> artifact =
          efind::reuse::CopySplits(data_.lineitem);
      {
        ScopedSpan span(tracer, "reuse.MaterializedStore::Publish");
        store.Publish(1, std::move(artifact), 1.0,
                      efind::reuse::ArtifactLayout::kRepartition,
                      config_.num_nodes, "perfbench:artifact");
      }
      for (int i = 0; i < 10; ++i) {
        ScopedSpan span(tracer, "reuse.MaterializedStore::Resolve");
        store.Resolve(1, &availability);
      }
    }
    (*out)["reuse.publish_ms"] =
        Median(tracer->SelfSecondsOf("reuse.MaterializedStore::Publish")) *
        1e3;
    (*out)["reuse.resolve_us"] =
        Median(tracer->SelfSecondsOf("reuse.MaterializedStore::Resolve")) *
        1e6;

    // WAL appends of admission-record size into a fresh journal.
    const std::string wal_path = params_.dir + "/layer.wal";
    fs::remove(wal_path);
    efind::durable::WriteAheadJournal journal;
    if (journal.Open(wal_path, "perfbench.wal").ok()) {
      const std::string record = "sub 17 2 1 0.53125000000000011";
      (*out)["wal.append_us_p50"] = ChunkedMedianUs(
          tracer, "durable.WriteAheadJournal::Append", 200, 10,
          [&](size_t) { journal.Append(record).ok(); });
    }
    journal.Close();
    fs::remove(wal_path);

    MeasureMapReduceLayer(config_, params_.threads, data_.lineitem, tracer,
                          out);
  }

  void CorruptReference() override {
    for (uint64_t& digest : reference_) digest ^= 1;
  }

  const efind::ClusterConfig& cluster() const override { return config_; }

 private:
  static constexpr efind::Strategy kStrategies[3] = {
      efind::Strategy::kRepartition, efind::Strategy::kRepartition,
      efind::Strategy::kLookupCache};

  WorkloadParams params_;
  efind::ClusterConfig config_;
  efind::TpchOptions tpch_;
  efind::EFindOptions efind_;
  efind::service::TenantQuota quota_;
  efind::TpchData data_;
  std::vector<efind::IndexJobConf> confs_;
  size_t lineitems_ = 0;
  std::vector<uint64_t> reference_;
  std::vector<std::vector<efind::JobStageSummary>> reference_jobs_;
  std::vector<double> isolated_sim_;
  double rate_ = 1.0;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchService(const WorkloadParams& params) {
  return std::make_unique<TpchService>(params);
}

}  // namespace perfbench
