// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// log_adaptive: the paper's adaptive path (Algorithm 1) on the LOG trace.
// Each op is one `RunDynamic` of the top-URLs-per-region job against the
// geo-IP cloud service, on a fresh runner. It loads the stage chain, cloud
// lookups and the lookup cache, the statistics collector and optimizer, a
// top-k reduce and heavy allocation; it never touches the packed store,
// the reuse store, the job service or durable commits.

#include <algorithm>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "harness.h"
#include "service/cloud_service.h"
#include "workloads/log_trace.h"

namespace perfbench {
namespace {

// Independently seeded traces a run cycles through. Algorithm 1 plans from
// first-wave statistics, so its plan and simulated time vary from trace to
// trace; medians over several traces keep a run's figures from hinging on
// one draw.
constexpr int kTraces = 8;

struct Trace {
  std::vector<efind::InputSplit> input;
  uint64_t records = 0;
  uint64_t reference = 0;  ///< Output digest of the baseline run.
};

class LogAdaptive : public Workload {
 public:
  explicit LogAdaptive(const WorkloadParams& params) : params_(params) {
    log_.num_events = 100000;
    log_.num_splits = 384;
    service_.base_latency_sec = 800e-6;  // Paper: T = 0.8 ms ...
    service_.extra_latency_sec = 1e-3;   // ... plus 1 ms of injected delay.
    efind_.threads = params.threads;
  }

  ConfigEcho Config() const override {
    return {{"events", std::to_string(log_.num_events)},
            {"splits", std::to_string(log_.num_splits)},
            {"ip_zipf", std::to_string(log_.ip_zipf)},
            {"traces", std::to_string(kTraces)},
            {"cloud_latency_sec", std::to_string(service_.base_latency_sec +
                                                 service_.extra_latency_sec)},
            {"cache_capacity", std::to_string(efind_.cache_capacity)},
            {"cluster_nodes", std::to_string(config_.num_nodes)},
            {"op", "RunDynamic on a fresh EFindJobRunner"}};
  }

  // About four ops a second; every trace runs equally often.
  int OpsFor(int seconds) const override {
    return kTraces * std::max(1, (seconds + 1) / 2);
  }

  bool Setup(Tracer* tracer, std::string* error) override {
    {
      ScopedSpan span(tracer, "workloads.Generate");
      for (int k = 0; k < kTraces; ++k) {
        efind::LogTraceOptions options = log_;
        options.seed = MixSeed(params_.seed, 0x1060 + k);
        traces_.push_back({efind::GenerateLogTrace(options, config_.num_nodes),
                           0, 0});
      }
      geo_ = std::make_unique<efind::CloudService>(
          efind::MakeGeoIpService(50, service_));
      conf_ = efind::MakeLogTopUrlsJob(geo_.get(), 10);
    }
    // Reference: the baseline strategy, no cache, no optimizer.
    ScopedSpan span(tracer, "reference.RunWithStrategy(base)");
    efind::EFindJobRunner runner(config_, efind_);
    for (Trace& trace : traces_) {
      for (const auto& split : trace.input) {
        trace.records += split.records.size();
      }
      if (trace.records == 0) {
        *error = "empty LOG trace";
        return false;
      }
      trace.reference = OutputDigest(
          runner.RunWithStrategy(conf_, trace.input, efind::Strategy::kBaseline)
              .outputs);
    }
    return true;
  }

  OpOutcome RunOp(int op, Tracer* tracer,
                  efind::obs::ObsSession* obs) override {
    const Trace& trace = traces_[op % kTraces];
    OpOutcome out;
    efind::EFindRunResult result;
    out.cost = Measure([&] {
      ScopedSpan span(tracer, "efind.EFindJobRunner::RunDynamic", op);
      efind::EFindJobRunner runner(config_, efind_);
      runner.set_obs(obs);
      result = runner.RunDynamic(conf_, trace.input);
    });
    out.job_sim_s = {result.sim_seconds};
    out.digests = {OutputDigest(result.outputs)};
    out.input_records = trace.records;
    out.failures = out.digests[0] != trace.reference ||
                   CounterSum(result.counters, "efind.", ".lookup_errors") > 0;
    out.replanned = result.replanned;
    out.stats_wave_share = result.sim_seconds > 0
                               ? result.stats_wave_seconds / result.sim_seconds
                               : 0.0;
    out.counters = std::move(result.counters);
    return out;
  }

  void MeasureLayers(const std::vector<OpOutcome>&, Tracer* tracer,
                     Metrics* out) override {
    const std::vector<efind::InputSplit>& input = traces_[0].input;
    std::vector<std::string> ips;
    for (const auto& split : input) {
      for (const auto& r : split.records) {
        ips.push_back(r.value.substr(0, r.value.find('|')));
      }
    }
    std::vector<efind::IndexValue> values;
    (*out)["cloud.lookup_us_p50"] = ChunkedMedianUs(
        tracer, "cloud.CloudService::Lookup", ips.size(), 1000,
        [&](size_t i) { geo_->Lookup(ips[i], &values).ok(); });

    efind::EFindJobRunner runner(config_, efind_);
    efind::CollectedStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "efind.EFindJobRunner::CollectStatistics");
      stats = runner.CollectStatistics(conf_, input);
    }
    (*out)["efind.collect_stats_ms"] =
        Median(tracer->SelfSecondsOf(
            "efind.EFindJobRunner::CollectStatistics")) * 1e3;
    for (int rep = 0; rep < 21; ++rep) {
      ScopedSpan span(tracer, "efind.EFindJobRunner::PlanFromStats");
      runner.PlanFromStats(conf_, stats);
    }
    (*out)["efind.plan_us"] =
        Median(tracer->SelfSecondsOf("efind.EFindJobRunner::PlanFromStats")) *
        1e6;
    (*out)["efind.plans_considered"] =
        static_cast<double>(runner.optimizer().last_plans_considered());

    MeasureMapReduceLayer(config_, params_.threads, input, tracer, out);
  }

  void CorruptReference() override {
    for (Trace& trace : traces_) trace.reference ^= 1;
  }

  const efind::ClusterConfig& cluster() const override { return config_; }

 private:
  WorkloadParams params_;
  efind::ClusterConfig config_;
  efind::LogTraceOptions log_;
  efind::CloudServiceOptions service_;
  efind::EFindOptions efind_;
  std::vector<Trace> traces_;
  std::unique_ptr<efind::CloudService> geo_;
  efind::IndexJobConf conf_;
};

}  // namespace

std::unique_ptr<Workload> MakeLogAdaptive(const WorkloadParams& params) {
  return std::make_unique<LogAdaptive>(params);
}

}  // namespace perfbench
