// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Multi-tenant job service acceptance bench (DESIGN.md §14). Three tenants
// submit a mixed small/big job stream from seeded Poisson-like arrival
// processes, calibrated to sustained overload (arrival rate beyond the
// cluster's service rate), and the same schedule runs under FIFO and
// weighted fair-share. Per tenant the bench reports p50/p99 job latency,
// mean slowdown (latency over the job's uncontended runtime), and the
// Jain fairness index over per-tenant mean slowdowns; per policy it
// reports the makespan. Gates (nonzero exit when violated):
//
//   1. fairness (the "mixed" scenario, three statistically identical
//      tenants): Jain over per-tenant mean slowdowns under fair-share is
//      at least 0.9.
//   2. tail isolation (the "flood" scenario, one tenant flooding big jobs
//      next to two light small-job tenants): the non-flooding tenants'
//      p99 latency under fair-share is strictly better than under FIFO
//      for the same arrival seed — their jobs no longer queue behind the
//      flooder's backlog. This is the fair-share promise: isolation, paid for
//      by the flooder's own tail, never by its neighbors'.
//   3. pass-through: a lone job submitted through the service (speculation
//      off) is byte-identical to a direct EFindJobRunner run — equal
//      output checksum — and its service latency equals the direct run's
//      `sim_seconds` (up to FP associativity of the event clock, ~1 ULP):
//      the service adds accounting, never cost.
//   4. reuse: with a shared MaterializedStore attached, a consumer
//      tenant's repeat of another tenant's job surfaces
//      `efind.reuse.cross_tenant_hits` > 0, and the consumer's outputs
//      still checksum identically to a store-less run.
//
// Gates compare SIMULATED seconds (the service clock), not host wall
// time: contention between tenants exists in the modeled 12-node cluster
// regardless of how many cores the host has.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "reuse/materialized_store.h"
#include "service/arrival.h"
#include "service/job_service.h"
#include "workloads/synthetic.h"

namespace efind {
namespace {

using service::Arrival;
using service::GenerateArrivals;
using service::JainIndex;
using service::JobService;
using service::Percentile;
using service::SchedulePolicy;
using service::ServiceOptions;
using service::ServiceResult;
using service::TenantArrivalSpec;
using service::TenantQuota;

/// One synthetic join job: records, loaded index, and the job conf that
/// borrows the store.
struct Workload {
  SyntheticOptions syn;
  std::unique_ptr<KvStore> store;
  std::vector<InputSplit> input;
  IndexJobConf conf;
};

Workload MakeWorkload(const SyntheticOptions& syn, int num_nodes) {
  Workload w;
  w.syn = syn;
  w.input = GenerateSynthetic(syn, num_nodes);
  KvStoreOptions kv;
  kv.num_nodes = num_nodes;
  w.store = std::make_unique<KvStore>(kv);
  LoadSyntheticIndex(syn, w.store.get());
  w.conf = MakeSyntheticJoinJob(w.store.get());
  return w;
}

struct TimedRun {
  ServiceResult result;
  double wall_ms = 0;
};

template <typename Fn>
TimedRun Timed(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  TimedRun out;
  out.result = fn();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace
}  // namespace efind

int main(int argc, char** argv) {
  using namespace efind;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("service");

  // Small probe jobs next to a big shuffle-heavy job: the FIFO tail is a
  // small job stuck behind every tenant's queued big jobs.
  SyntheticOptions small_syn;
  small_syn.num_records = 3000;
  small_syn.num_distinct_keys = 1500;
  small_syn.num_splits = 24;
  SyntheticOptions big_syn;
  big_syn.num_records = 96000;
  big_syn.num_distinct_keys = 24000;
  big_syn.num_splits = 96;
  Workload small = MakeWorkload(small_syn, opts.config.num_nodes);
  Workload big = MakeWorkload(big_syn, opts.config.num_nodes);

  // Uncontended baselines calibrate the arrival rates: every tenant
  // submits ~3 jobs per big-job runtime, so the backlog never drains
  // until the streams end (sustained overload).
  EFindJobRunner direct(opts.config, opts.MakeEFindOptions());
  const EFindRunResult small_ref =
      direct.RunWithStrategy(small.conf, small.input, Strategy::kLookupCache);
  const EFindRunResult big_ref =
      direct.RunWithStrategy(big.conf, big.input, Strategy::kRepartition);
  std::printf(
      "{\"bench\": \"service/baseline\", \"small_sim\": %.6f, "
      "\"big_sim\": %.6f}\n",
      small_ref.sim_seconds, big_ref.sim_seconds);

  auto configure = [&](JobService* svc) {
    svc->AddTenant("alpha", 1.0, TenantQuota{});
    svc->AddTenant("bravo", 1.0, TenantQuota{});
    svc->AddTenant("carol", 1.0, TenantQuota{});
    svc->AddTemplate({&small.conf, &small.input, Strategy::kLookupCache});
    svc->AddTemplate({&big.conf, &big.input, Strategy::kRepartition});
  };

  const uint64_t arrival_seed = 42;
  const double rate = 3.0 / big_ref.sim_seconds;
  // "mixed": three statistically identical tenants flooding the same
  // small/big mix — the Jain scenario.
  const std::vector<Arrival> mixed = GenerateArrivals(
      {{rate, 12, {0, 1}}, {rate, 12, {0, 1}}, {rate, 12, {0, 1}}},
      arrival_seed);
  // "flood": alpha floods big jobs while bravo/carol trickle small ones —
  // the tail-isolation scenario.
  const std::vector<Arrival> flood = GenerateArrivals(
      {{rate, 12, {1}}, {rate / 3.0, 8, {0}}, {rate / 3.0, 8, {0}}},
      arrival_seed);

  auto run_policy = [&](const std::vector<Arrival>& arrivals,
                        SchedulePolicy policy) {
    return Timed([&] {
      ServiceOptions options;
      options.policy = policy;
      options.efind = opts.MakeEFindOptions();
      JobService svc(opts.config, options);
      configure(&svc);
      return svc.Run(arrivals);
    });
  };
  const TimedRun mixed_fifo = run_policy(mixed, SchedulePolicy::kFifo);
  const TimedRun mixed_fair = run_policy(mixed, SchedulePolicy::kFairShare);
  const TimedRun flood_fifo = run_policy(flood, SchedulePolicy::kFifo);
  const TimedRun flood_fair = run_policy(flood, SchedulePolicy::kFairShare);

  bool ok = true;
  auto check = [&](const std::string& what, bool passed) {
    std::printf(
        "{\"bench\": \"service/check\", \"what\": \"%s\", \"passed\": %s}\n",
        what.c_str(), passed ? "true" : "false");
    if (!passed) ok = false;
  };

  auto report = [&](const char* name, const TimedRun& run) {
    const ServiceResult& r = run.result;
    harness.Add(std::string(name) + "/makespan", r.makespan,
                "jobs=" + std::to_string(r.jobs.size()), run.wall_ms);
    std::vector<double> mean_slowdowns;
    for (size_t t = 0; t < r.tenants.size(); ++t) {
      const auto& stats = r.tenants[t];
      const std::vector<double> lat = r.Latencies(static_cast<int>(t));
      const std::vector<double> slow = r.Slowdowns(static_cast<int>(t));
      const double mean_slowdown =
          stats.finished > 0 ? stats.total_slowdown / stats.finished : 0.0;
      mean_slowdowns.push_back(mean_slowdown);
      std::printf(
          "{\"bench\": \"service/%s/tenant/%s\", \"finished\": %llu, "
          "\"p50_latency\": %.6f, \"p99_latency\": %.6f, "
          "\"p50_slowdown\": %.4f, \"p99_slowdown\": %.4f, "
          "\"mean_slowdown\": %.4f, \"slot_seconds\": %.6f}\n",
          name, stats.name.c_str(),
          static_cast<unsigned long long>(stats.finished),
          Percentile(lat, 0.50), Percentile(lat, 0.99),
          Percentile(slow, 0.50), Percentile(slow, 0.99), mean_slowdown,
          stats.slot_seconds);
      harness.Add(std::string(name) + "/" + stats.name + "/p99_latency",
                  Percentile(lat, 0.99));
    }
    const double jain = JainIndex(mean_slowdowns);
    const double p99 = Percentile(r.Slowdowns(), 0.99);
    std::printf(
        "{\"bench\": \"service/%s/summary\", \"makespan\": %.6f, "
        "\"jain_mean_slowdown\": %.4f, \"p99_slowdown\": %.4f, "
        "\"p50_latency\": %.6f, \"p99_latency\": %.6f}\n",
        name, r.makespan, jain, p99, Percentile(r.Latencies(), 0.50),
        Percentile(r.Latencies(), 0.99));
    return std::pair<double, double>(jain, p99);
  };
  report("mixed/fifo", mixed_fifo);
  const auto [mixed_fair_jain, mixed_fair_p99] =
      report("mixed/fair", mixed_fair);
  report("flood/fifo", flood_fifo);
  report("flood/fair", flood_fair);
  (void)mixed_fair_p99;

  // The non-flooding tenants' combined finished-job latencies.
  auto light_latencies = [](const ServiceResult& r) {
    std::vector<double> lat = r.Latencies(1);
    const std::vector<double> carol = r.Latencies(2);
    lat.insert(lat.end(), carol.begin(), carol.end());
    return lat;
  };
  const double fifo_light_p99 =
      Percentile(light_latencies(flood_fifo.result), 0.99);
  const double fair_light_p99 =
      Percentile(light_latencies(flood_fair.result), 0.99);
  std::printf(
      "{\"bench\": \"service/flood/light_p99\", \"fifo\": %.6f, "
      "\"fair\": %.6f}\n",
      fifo_light_p99, fair_light_p99);

  const double min_jain = 0.9;
  check("fair-share Jain over mean slowdowns >= " + std::to_string(min_jain),
        mixed_fair_jain >= min_jain);
  check("fair-share p99 (non-flooding tenants) strictly better than FIFO",
        fair_light_p99 < fifo_light_p99);

  // --- gate 3: the service is a pass-through for a lone job --------------
  {
    ClusterConfig quiet = opts.config;
    quiet.speculative_execution = false;
    EFindJobRunner ref_runner(quiet, opts.MakeEFindOptions());
    const auto start = std::chrono::steady_clock::now();
    const EFindRunResult ref =
        ref_runner.RunWithStrategy(big.conf, big.input, Strategy::kRepartition);
    const double ref_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    ServiceOptions options;
    options.efind = opts.MakeEFindOptions();
    const TimedRun lone = Timed([&] {
      JobService svc(quiet, options);
      configure(&svc);
      return svc.Run({{0.0, /*tenant=*/0, /*job_template=*/1}});
    });
    const ServiceResult& r = lone.result;
    const bool shape_ok = r.jobs.size() == 1 && !r.jobs[0].rejected;
    check("lone job finishes through the service", shape_ok);
    if (shape_ok) {
      check("lone job output checksum == direct run",
            r.jobs[0].output_checksum == reuse::ChecksumSplits(ref.outputs));
      // Bytes are bit-identical (above); the latency matches the direct
      // sim_seconds up to FP associativity of the event clock (~1 ULP).
      check("lone job service latency == direct sim_seconds",
            std::fabs(r.jobs[0].latency() - ref.sim_seconds) <=
                    1e-9 * ref.sim_seconds &&
                r.jobs[0].admit == 0.0);
      harness.Add("lone/direct", ref.sim_seconds, "", ref_ms);
      harness.Add("lone/service", r.jobs[0].latency(), "", lone.wall_ms);
    }
  }

  // --- gate 4: cross-tenant artifact reuse -------------------------------
  {
    // 1 GiB virtual capacity: the big job's shuffle artifact (~192 MB of
    // virtual payload) must be publishable for the hit path to exist.
    reuse::MaterializedStore store(1ull << 30, opts.config.num_nodes);
    ServiceOptions options;
    options.efind = opts.MakeEFindOptions();
    const TimedRun shared = Timed([&] {
      JobService svc(opts.config, options);
      configure(&svc);
      svc.set_store(&store);
      // alpha publishes the big job's shuffle artifact; bravo and carol
      // repeat the template and must hit it cross-tenant.
      return svc.Run({{0.0, 0, 1}, {1.0, 1, 1}, {2.0, 2, 1}});
    });
    const ServiceResult& r = shared.result;
    const double cross = r.counters.Get("efind.reuse.cross_tenant_hits");
    std::printf(
        "{\"bench\": \"service/reuse\", \"hits\": %.0f, "
        "\"cross_tenant_hits\": %.0f, \"misses\": %.0f}\n",
        r.counters.Get("efind.reuse.hits"), cross,
        r.counters.Get("efind.reuse.misses"));
    check("cross-tenant reuse hits > 0", cross > 0.0);
    bool outputs_ok = r.jobs.size() == 3;
    for (size_t i = 0; outputs_ok && i < r.jobs.size(); ++i) {
      outputs_ok = r.jobs[i].output_checksum ==
                   reuse::ChecksumSplits(big_ref.outputs);
    }
    check("reused outputs checksum identically to store-less runs",
          outputs_ok);
    harness.Add("reuse/shared_store", r.makespan,
                "cross_hits=" + std::to_string(static_cast<long long>(cross)),
                shared.wall_ms);
  }

  const int rc = bench::FinishBench(harness, opts, argc, argv);
  if (!ok) {
    std::fprintf(stderr, "bench_service: acceptance gate failed\n");
    return 1;
  }
  return rc;
}
