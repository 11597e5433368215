// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the service-level resilience path: a
// stage-owned BreakerBank is *mutated* by `LookupFailover::Resilient` from
// every worker strand concurrently — safe only because the stage declares
// per-node state (`holds_node_state`), so each (task node, index partition)
// cell is touched exclusively from its node's strand, the same argument
// that makes per-node lookup caches safe (DESIGN.md §6/§10).
// Compiled standalone with -fsanitize=thread together with the engine
// sources and src/efind/failover.cc so every access is instrumented. Runs
// the full service-fault matrix (spikes + hedging, flaky errors,
// corruption, breakers, host outages) at 1 and 8 worker threads and checks
// the results agree bit for bit; TSan reports fail via the exit code.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "efind/failover.h"
#include "mapreduce/job_runner.h"

namespace efind {
namespace {

/// Minimal consecutive-replica partition scheme (self-contained so the
/// smoke binary does not pull in the kvstore library).
class SmokeScheme : public PartitionScheme {
 public:
  SmokeScheme(int partitions, int nodes, int replicas)
      : partitions_(partitions), nodes_(nodes), replicas_(replicas) {}

  int num_partitions() const override { return partitions_; }
  int PartitionOf(std::string_view key) const override {
    uint64_t h = 1469598103934665603ULL;
    for (char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return static_cast<int>(h % static_cast<uint64_t>(partitions_));
  }
  int HostOfPartition(int partition) const override {
    return partition % nodes_;
  }
  bool NodeHostsPartition(int node, int partition) const override {
    const int primary = HostOfPartition(partition);
    for (int r = 0; r < replicas_; ++r) {
      if ((primary + r) % nodes_ == node) return true;
    }
    return false;
  }

 private:
  int partitions_;
  int nodes_;
  int replicas_;
};

/// Accessor stub: fixed service time, partition scheme as above.
class SmokeAccessor : public IndexAccessor {
 public:
  explicit SmokeAccessor(const PartitionScheme* scheme) : scheme_(scheme) {}

  std::string name() const override { return "smoke"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    out->push_back(IndexValue(ik, ik.size() + 8));
    return Status::OK();
  }
  double ServiceSeconds(uint64_t result_bytes) const override {
    return 1e-5 + 1e-9 * static_cast<double>(result_bytes);
  }
  double RemoteOverheadSeconds() const override { return 2e-6; }
  const PartitionScheme* partition_scheme() const override { return scheme_; }

 private:
  const PartitionScheme* scheme_;
};

/// Every record issues one remote and one "local" resilient lookup through
/// the shared LookupFailover + the stage-owned shared BreakerBank, from
/// whatever strand the task runs on. The bank is per-node state, so the
/// stage declares it.
class ResilientStage : public RecordStage {
 public:
  ResilientStage(SmokeAccessor* accessor, const LookupFailover* failover,
                 BreakerBank* breakers)
      : accessor_(accessor), failover_(failover), breakers_(breakers) {}

  std::string name() const override { return "resilience_churn"; }
  bool holds_node_state() const override { return true; }

  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    std::vector<IndexValue> values;
    accessor_->Lookup(record.key, &values).ok();
    uint64_t result_bytes = 0;
    for (const auto& v : values) result_bytes += v.size_bytes();
    const double service = accessor_->ServiceSeconds(result_bytes);
    const LookupCharge remote = failover_->Resilient(
        *accessor_, record.key, result_bytes, service, ctx->node_id(),
        /*local=*/false, ctx->sim_time(), breakers_);
    ctx->AddSimTime(remote.seconds);
    const LookupCharge local = failover_->Resilient(
        *accessor_, record.key, result_bytes, service, ctx->node_id(),
        /*local=*/true, ctx->sim_time(), breakers_);
    ctx->AddSimTime(local.seconds);
    ctx->counters()->Increment("smoke.lookups", 2.0);
    ctx->counters()->Increment("smoke.hedges", remote.hedges + local.hedges);
    ctx->counters()->Increment("smoke.flaky",
                               remote.flaky_errors + local.flaky_errors);
    ctx->counters()->Increment(
        "smoke.corrupt", remote.corrupt_detected + local.corrupt_detected);
    if (remote.breaker_short_circuit || local.breaker_short_circuit) {
      ctx->counters()->Increment("smoke.short_circuits");
    }
    if (remote.breaker_transition_to != 0 ||
        local.breaker_transition_to != 0) {
      ctx->counters()->Increment("smoke.breaker_transitions");
    }
    out->Emit(std::move(record));
  }

 private:
  SmokeAccessor* accessor_;
  const LookupFailover* failover_;
  BreakerBank* breakers_;
};

JobResult RunOnce(int threads) {
  ClusterConfig config;
  config.host_downtimes.push_back({3});
  config.host_downtimes.push_back({7, 0.0, 1e-3});
  config.degraded_hosts.push_back(5);
  config.lookup_retry_backoff_sec = 1e-4;
  config.lookup_latency_spike_rate = 0.1;
  config.lookup_latency_spike_factor = 8.0;
  config.lookup_flaky_rate = 0.25;
  config.lookup_corrupt_rate = 0.1;
  config.hedged_lookups = true;
  config.hedge_quantile = 0.92;
  config.breaker_failure_threshold = 2;
  config.breaker_open_lookups = 6;

  HostAvailability avail(config);
  FaultModel faults(&config, &avail);
  LookupFailover failover(&config, &avail, &faults);
  SmokeScheme scheme(32, config.num_nodes, 3);
  SmokeAccessor accessor(&scheme);
  BreakerBank breakers(config.num_nodes, scheme.num_partitions());

  JobRunner runner(config);
  runner.set_num_threads(threads);

  JobConfig job;
  job.map_stages.push_back(
      std::make_shared<ResilientStage>(&accessor, &failover, &breakers));
  job.num_reduce_tasks = 0;

  std::vector<InputSplit> input(36);
  int v = 0;
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % config.num_nodes;
    for (int r = 0; r < 40; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 64), "v" + std::to_string(v)));
      ++v;
    }
  }
  return runner.Run(job, input);
}

}  // namespace
}  // namespace efind

int main() {
  const efind::JobResult serial = efind::RunOnce(1);
  const efind::JobResult parallel = efind::RunOnce(8);

  int failures = 0;
  if (serial.sim_seconds != parallel.sim_seconds) {
    std::fprintf(stderr, "sim_seconds mismatch: %.17g vs %.17g\n",
                 serial.sim_seconds, parallel.sim_seconds);
    ++failures;
  }
  if (serial.counters.values() != parallel.counters.values()) {
    std::fprintf(stderr, "counters mismatch\n");
    ++failures;
  }
  for (const char* counter :
       {"smoke.hedges", "smoke.flaky", "smoke.corrupt",
        "smoke.breaker_transitions", "smoke.short_circuits"}) {
    if (serial.counters.Get(counter) <= 0) {
      std::fprintf(stderr, "expected nonzero %s under the fault matrix\n",
                   counter);
      ++failures;
    }
  }
  if (serial.outputs.size() != parallel.outputs.size()) {
    std::fprintf(stderr, "output split count mismatch\n");
    ++failures;
  } else {
    for (size_t i = 0; i < serial.outputs.size(); ++i) {
      if (serial.outputs[i].records != parallel.outputs[i].records) {
        std::fprintf(stderr, "output mismatch in split %zu\n", i);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("resilience_tsan_smoke: OK\n");
    return 0;
  }
  return 1;
}
