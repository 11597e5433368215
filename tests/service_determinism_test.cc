// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Determinism contract of the multi-tenant job service (DESIGN.md §14):
// with a fixed arrival seed, outputs, counters, latencies, and traces are
// bit-identical at threads=1 and threads=N — three tenants under the full
// fault matrix. Also: the scheduling policy moves *time*, never *bytes*
// (FIFO and fair-share produce identical job outputs); a lone job through
// the service costs exactly its direct-run simulated seconds and returns
// byte-identical records; and deferred admissions charge the backlog wait
// to job latency.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"
#include "service/job_service.h"
#include "tests/test_util.h"

namespace efind {
namespace service {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

ClusterConfig FaultMatrixConfig() {
  ClusterConfig config;
  config.task_failure_rate = 0.08;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.host_downtimes.push_back({3});
  config.degraded_hosts.push_back(5);
  config.lookup_retry_backoff_sec = 1e-3;
  config.fault_seed = 7;
  return config;
}

/// A three-tenant world sharing two job templates over one toy dataset.
struct ServiceWorld {
  ServiceWorld()
      : world(300, 60),
        input(world.MakeInput(36, 30, 300)),
        map_only(world.MakeJoinJob(false)),
        with_reduce(world.MakeJoinJob(true)) {}

  /// Registers the standard three tenants and two templates on `svc`.
  void Configure(JobService* svc, obs::ObsSession* session = nullptr) {
    svc->AddTenant("alpha", 3.0, TenantQuota{});
    svc->AddTenant("bravo", 1.0, TenantQuota{});
    svc->AddTenant("carol", 1.0, TenantQuota{});
    svc->AddTemplate({&map_only, &input, Strategy::kLookupCache});
    svc->AddTemplate({&with_reduce, &input, Strategy::kRepartition});
    if (session != nullptr) svc->set_obs(session);
  }

  /// A near-simultaneous burst: scaling a seeded schedule down to a tiny
  /// window guarantees many live jobs regardless of template runtimes.
  static std::vector<Arrival> MakeArrivals(uint64_t seed) {
    std::vector<TenantArrivalSpec> specs(3);
    specs[0] = {/*rate=*/1.0, /*count=*/8, /*templates=*/{0, 1}};
    specs[1] = {/*rate=*/1.0, /*count=*/6, /*templates=*/{1}};
    specs[2] = {/*rate=*/1.0, /*count=*/5, /*templates=*/{0}};
    std::vector<Arrival> arrivals = GenerateArrivals(specs, seed);
    for (Arrival& a : arrivals) a.time *= 1e-3;
    return arrivals;
  }

  ToyWorld world;
  std::vector<InputSplit> input;
  IndexJobConf map_only;
  IndexJobConf with_reduce;
};

void ExpectResultsIdentical(const ServiceResult& a, const ServiceResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].tenant, b.jobs[i].tenant) << "job " << i;
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(a.jobs[i].admit, b.jobs[i].admit) << "job " << i;
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i;
    EXPECT_EQ(a.jobs[i].rejected, b.jobs[i].rejected) << "job " << i;
    EXPECT_EQ(a.jobs[i].isolated_seconds, b.jobs[i].isolated_seconds)
        << "job " << i;
    EXPECT_EQ(a.jobs[i].output_checksum, b.jobs[i].output_checksum)
        << "job " << i;
    EXPECT_EQ(a.jobs[i].counters.values(), b.jobs[i].counters.values())
        << "job " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.counters.values(), b.counters.values());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].finished, b.tenants[t].finished) << "tenant " << t;
    EXPECT_EQ(a.tenants[t].slot_seconds, b.tenants[t].slot_seconds)
        << "tenant " << t;
    EXPECT_EQ(a.tenants[t].total_latency, b.tenants[t].total_latency)
        << "tenant " << t;
    EXPECT_EQ(a.tenants[t].backups_launched, b.tenants[t].backups_launched)
        << "tenant " << t;
    EXPECT_EQ(a.tenants[t].backup_wins, b.tenants[t].backup_wins)
        << "tenant " << t;
    EXPECT_EQ(a.tenants[t].backups_preempted, b.tenants[t].backups_preempted)
        << "tenant " << t;
  }
}

TEST(ServiceDeterminismTest, ThreadCountInvariantUnderFaultMatrix) {
  const ClusterConfig config = FaultMatrixConfig();
  const auto arrivals = ServiceWorld::MakeArrivals(42);

  ServiceWorld w1, w8;
  ServiceOptions o1, o8;
  o1.efind.threads = 1;
  o8.efind.threads = 8;
  obs::ObsSession s1, s8;
  JobService svc1(config, o1);
  JobService svc8(config, o8);
  w1.Configure(&svc1, &s1);
  w8.Configure(&svc8, &s8);
  const ServiceResult r1 = svc1.Run(arrivals);
  const ServiceResult r8 = svc8.Run(arrivals);

  ASSERT_EQ(r1.jobs.size(), arrivals.size());
  ExpectResultsIdentical(r1, r8);
  ASSERT_FALSE(s1.trace().events().empty());
  EXPECT_EQ(obs::ChromeTraceJson(s1.trace(), config.num_nodes),
            obs::ChromeTraceJson(s8.trace(), config.num_nodes));
  EXPECT_EQ(s1.metrics().CounterValues(), s8.metrics().CounterValues());
  EXPECT_EQ(s1.metrics().GaugeValues(), s8.metrics().GaugeValues());
}

TEST(ServiceDeterminismTest, RepeatRunIsBitIdentical) {
  const ClusterConfig config = FaultMatrixConfig();
  const auto arrivals = ServiceWorld::MakeArrivals(9);
  ServiceWorld wa, wb;
  JobService sa(config, {});
  JobService sb(config, {});
  wa.Configure(&sa);
  wb.Configure(&sb);
  const ServiceResult a = sa.Run(arrivals);
  const ServiceResult b = sb.Run(arrivals);
  ExpectResultsIdentical(a, b);
}

TEST(ServiceDeterminismTest, PolicyMovesTimeNeverBytes) {
  // FIFO and fair-share schedule the same executions differently: per-job
  // checksums, counters, and isolated runtimes must match entry for entry;
  // only admit/finish instants may move.
  const ClusterConfig config = FaultMatrixConfig();
  const auto arrivals = ServiceWorld::MakeArrivals(13);
  ServiceWorld wf, ws;
  ServiceOptions fifo, fair;
  fifo.policy = SchedulePolicy::kFifo;
  fair.policy = SchedulePolicy::kFairShare;
  JobService sf(config, fifo);
  JobService ss(config, fair);
  wf.Configure(&sf);
  ws.Configure(&ss);
  const ServiceResult rf = sf.Run(arrivals);
  const ServiceResult rs = ss.Run(arrivals);

  ASSERT_EQ(rf.jobs.size(), rs.jobs.size());
  bool any_timing_diff = false;
  for (size_t i = 0; i < rf.jobs.size(); ++i) {
    EXPECT_EQ(rf.jobs[i].output_checksum, rs.jobs[i].output_checksum)
        << "job " << i;
    EXPECT_EQ(rf.jobs[i].isolated_seconds, rs.jobs[i].isolated_seconds)
        << "job " << i;
    EXPECT_EQ(rf.jobs[i].counters.values(), rs.jobs[i].counters.values())
        << "job " << i;
    if (rf.jobs[i].finish != rs.jobs[i].finish) any_timing_diff = true;
  }
  // The burst overlaps enough jobs that the policies cannot coincide.
  EXPECT_TRUE(any_timing_diff);
}

TEST(ServiceDeterminismTest, LoneJobCostsExactlyItsDirectRun) {
  // Speculation off: the service's event replay must reproduce the
  // engine's FIFO wave schedule exactly, so a single job's service latency
  // equals the direct run's simulated seconds and its records match
  // byte for byte.
  ClusterConfig config;  // Fault-free, speculation off.
  ServiceWorld w;
  EFindJobRunner direct(config);
  const EFindRunResult ref =
      direct.RunWithStrategy(w.with_reduce, w.input, Strategy::kRepartition);

  ServiceOptions options;
  options.keep_outputs = true;
  JobService svc(config, options);
  svc.AddTenant("solo", 1.0, TenantQuota{});
  svc.AddTemplate({&w.with_reduce, &w.input, Strategy::kRepartition});
  const ServiceResult r = svc.Run({{/*time=*/0.0, /*tenant=*/0,
                                    /*job_template=*/0}});

  ASSERT_EQ(r.jobs.size(), 1u);
  const JobOutcome& out = r.jobs[0];
  EXPECT_EQ(out.admit, 0.0);  // Admitted on arrival, no queue wait.
  // The replay reproduces the wave schedule; the latency matches the
  // direct run's sim_seconds up to FP associativity of the event clock
  // (the direct runner sums stage makespans, the replay chains absolute
  // event times — ~1 ULP apart). Bytes are bit-identical below.
  EXPECT_NEAR(out.latency(), ref.sim_seconds, 1e-12);
  EXPECT_EQ(out.isolated_seconds, ref.sim_seconds);
  EXPECT_EQ(out.output_checksum, reuse::ChecksumSplits(ref.outputs));
  std::vector<Record> service_records, direct_records;
  for (const auto& s : out.outputs) {
    for (const auto& rec : s.records) service_records.push_back(rec);
  }
  for (const auto& s : ref.outputs) {
    for (const auto& rec : s.records) direct_records.push_back(rec);
  }
  EXPECT_EQ(Sorted(service_records), Sorted(direct_records));

  // A nonzero arrival shifts the whole schedule by the offset; the event
  // clock is absolute, so the identity holds up to FP rounding of the
  // offset addition (exactness is the offset-zero contract above).
  JobService late(config, {});
  late.AddTenant("solo", 1.0, TenantQuota{});
  late.AddTemplate({&w.with_reduce, &w.input, Strategy::kRepartition});
  const ServiceResult r5 = late.Run({{5.0, 0, 0}});
  ASSERT_EQ(r5.jobs.size(), 1u);
  EXPECT_EQ(r5.jobs[0].admit, 5.0);
  EXPECT_NEAR(r5.jobs[0].latency(), ref.sim_seconds, 1e-9);
  EXPECT_EQ(r5.jobs[0].output_checksum, out.output_checksum);
}

TEST(ServiceDeterminismTest, LoneJobMatchesDirectRunUnderFaults) {
  ClusterConfig config = FaultMatrixConfig();
  config.speculative_execution = false;  // Replay matches without backups.
  ServiceWorld w;
  EFindJobRunner direct(config);
  const EFindRunResult ref =
      direct.RunWithStrategy(w.map_only, w.input, Strategy::kLookupCache);

  JobService svc(config, {});
  svc.AddTenant("solo", 1.0, TenantQuota{});
  svc.AddTemplate({&w.map_only, &w.input, Strategy::kLookupCache});
  const ServiceResult r = svc.Run({{0.0, 0, 0}});
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_NEAR(r.jobs[0].latency(), ref.sim_seconds, 1e-12);
  EXPECT_EQ(r.jobs[0].output_checksum, reuse::ChecksumSplits(ref.outputs));
}

TEST(ServiceDeterminismTest, DeferredAdmissionChargesQueueWait) {
  // One tenant, quota of one job in system: back-to-back submissions
  // serialize, and the second job's latency includes its backlog wait.
  ClusterConfig config;
  ServiceWorld w;
  JobService svc(config, {});
  svc.AddTenant("solo", 1.0, TenantQuota{/*max_in_system=*/1,
                                         /*max_backlog=*/0});
  svc.AddTemplate({&w.map_only, &w.input, Strategy::kLookupCache});
  const ServiceResult r = svc.Run({{0.0, 0, 0}, {0.0, 0, 0}});

  ASSERT_EQ(r.jobs.size(), 2u);
  const JobOutcome& first = r.jobs[0];
  const JobOutcome& second = r.jobs[1];
  EXPECT_EQ(first.admit, 0.0);
  // The second waits in the backlog until the first finishes.
  EXPECT_EQ(second.admit, first.finish);
  EXPECT_DOUBLE_EQ(second.latency(),
                   (second.admit - second.arrival) + second.isolated_seconds);
  EXPECT_GT(second.latency(), second.isolated_seconds);
  EXPECT_EQ(r.tenants[0].deferred, 1u);
  EXPECT_EQ(r.tenants[0].finished, 2u);
}

TEST(ServiceDeterminismTest, BacklogOverflowRejects) {
  ClusterConfig config;
  ServiceWorld w;
  JobService svc(config, {});
  svc.AddTenant("solo", 1.0, TenantQuota{/*max_in_system=*/1,
                                         /*max_backlog=*/1});
  svc.AddTemplate({&w.map_only, &w.input, Strategy::kLookupCache});
  const ServiceResult r = svc.Run({{0.0, 0, 0}, {0.0, 0, 0}, {0.0, 0, 0}});

  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_FALSE(r.jobs[0].rejected);
  EXPECT_FALSE(r.jobs[1].rejected);
  EXPECT_TRUE(r.jobs[2].rejected);
  EXPECT_LT(r.jobs[2].finish, 0.0);  // Never ran.
  EXPECT_EQ(r.tenants[0].finished, 2u);
  // Rejected submissions contribute no latency samples.
  EXPECT_EQ(r.Latencies(0).size(), 2u);
}

TEST(ServiceDeterminismTest, SpeculationPreemptionNeverChangesOutputs) {
  // Service-level speculation (backups + preemption) is pure timing: the
  // same arrivals with speculation on and off yield identical per-job
  // checksums and counters.
  ClusterConfig spec_on = FaultMatrixConfig();
  ClusterConfig spec_off = FaultMatrixConfig();
  spec_off.speculative_execution = false;
  const auto arrivals = ServiceWorld::MakeArrivals(21);
  ServiceWorld won, woff;
  JobService son(spec_on, {});
  JobService soff(spec_off, {});
  won.Configure(&son);
  woff.Configure(&soff);
  const ServiceResult on = son.Run(arrivals);
  const ServiceResult off = soff.Run(arrivals);

  ASSERT_EQ(on.jobs.size(), off.jobs.size());
  for (size_t i = 0; i < on.jobs.size(); ++i) {
    EXPECT_EQ(on.jobs[i].output_checksum, off.jobs[i].output_checksum)
        << "job " << i;
    EXPECT_EQ(on.jobs[i].counters.values(), off.jobs[i].counters.values())
        << "job " << i;
  }
}

}  // namespace
}  // namespace service
}  // namespace efind
