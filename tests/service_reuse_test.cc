// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Cross-tenant artifact reuse through the job service (DESIGN.md §14):
// artifact fingerprints are tenant-agnostic, so one tenant's published
// shuffle serves another tenant's identical job — surfaced in the consumer's
// `efind.reuse.cross_tenant_hits` counter and, naming the producer, in
// `ResolveOutcome::owner` and the `reuse_hit` instant's `owner` arg. Also
// covers the tenant plumbing on
// MaterializedStore/EFindJobRunner directly, and the engine-level
// regression that speculative backups never change job outputs.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "mapreduce/job_runner.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"
#include "service/job_service.h"
#include "tests/test_util.h"

namespace efind {
namespace service {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

TEST(ServiceReuseTest, StoreAttributesTrafficToTenants) {
  // Direct runner-level check of the accounting the service relies on:
  // alice publishes, bob's identical job hits alice's artifact.
  ToyWorld world(150);
  auto input = world.MakeInput(24, 40, 150);
  IndexJobConf first = world.MakeJoinJob(false);
  IndexJobConf followup = world.MakeJoinJob(true);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);
  EFindJobRunner runner(config);
  runner.set_reuse(&store);

  runner.set_tenant("alice");
  auto cold = runner.RunWithStrategy(first, input, Strategy::kRepartition);
  EXPECT_EQ(cold.counters.Get("efind.reuse.misses"), 1.0);
  EXPECT_EQ(cold.counters.Get("efind.reuse.hits"), 0.0);

  runner.set_tenant("bob");
  auto warm = runner.RunWithStrategy(followup, input, Strategy::kRepartition);
  EXPECT_EQ(warm.counters.Get("efind.reuse.hits"), 1.0);
  EXPECT_EQ(warm.counters.Get("efind.reuse.cross_tenant_hits"), 1.0);

  EXPECT_EQ(warm.counters.Get("efind.reuse.misses"), 0.0);

  // Store-side attribution: alice published the one artifact, bob's hit on
  // it was served, and a resolve by bob names alice as its owner.
  EXPECT_EQ(store.stats().publishes, 1u);
  ASSERT_EQ(store.Entries().size(), 1u);
  EXPECT_EQ(store.Entries()[0].owner, "alice");
  EXPECT_EQ(store.Entries()[0].reuse_count, 1u);
  reuse::MaterializedStore::ResolveOutcome outcome;
  ASSERT_NE(store.Resolve(store.Entries()[0].fingerprint, nullptr, nullptr,
                          &outcome, "bob"),
            nullptr);
  EXPECT_EQ(outcome.owner, "alice");
  EXPECT_TRUE(outcome.cross_tenant);
}

TEST(ServiceReuseTest, SameTenantHitIsNotCrossTenant) {
  ToyWorld world(150);
  auto input = world.MakeInput(24, 40, 150);
  IndexJobConf first = world.MakeJoinJob(false);
  IndexJobConf followup = world.MakeJoinJob(true);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);
  EFindJobRunner runner(config);
  runner.set_reuse(&store);
  runner.set_tenant("alice");
  runner.RunWithStrategy(first, input, Strategy::kRepartition);
  auto warm = runner.RunWithStrategy(followup, input, Strategy::kRepartition);

  EXPECT_EQ(warm.counters.Get("efind.reuse.hits"), 1.0);
  EXPECT_EQ(warm.counters.Get("efind.reuse.cross_tenant_hits"), 0.0);
  ASSERT_EQ(store.Entries().size(), 1u);
  reuse::MaterializedStore::ResolveOutcome outcome;
  ASSERT_NE(store.Resolve(store.Entries()[0].fingerprint, nullptr, nullptr,
                          &outcome, "alice"),
            nullptr);
  EXPECT_EQ(outcome.owner, "alice");
  EXPECT_FALSE(outcome.cross_tenant);
}

TEST(ServiceReuseTest, ReuseHitInstantNamesCrossTenantOwner) {
  // The producer side of a cross-tenant hit is named only by the hit
  // itself: the `reuse_hit` instant carries `owner` exactly when the
  // artifact belongs to another tenant.
  ToyWorld world(150);
  auto input = world.MakeInput(24, 40, 150);
  IndexJobConf first = world.MakeJoinJob(false);
  IndexJobConf followup = world.MakeJoinJob(true);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);
  obs::ObsSession session;
  EFindJobRunner runner(config);
  runner.set_reuse(&store);
  runner.set_obs(&session);

  runner.set_tenant("alice");
  runner.RunWithStrategy(first, input, Strategy::kRepartition);
  runner.RunWithStrategy(followup, input, Strategy::kRepartition);
  runner.set_tenant("bob");
  runner.RunWithStrategy(followup, input, Strategy::kRepartition);

  std::vector<std::map<std::string, std::string>> hits;
  for (const obs::TraceEvent& e : session.trace().events()) {
    if (e.name != "reuse_hit") continue;
    EXPECT_TRUE(e.instant);
    std::map<std::string, std::string>& args = hits.emplace_back();
    for (const obs::TraceArg& a : e.args) args[a.key] = a.value;
  }
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].count("owner"), 0u);  // alice's own artifact.
  ASSERT_EQ(hits[1].count("owner"), 1u);  // bob's hit on alice's.
  EXPECT_EQ(hits[1].at("owner"), "alice");
  EXPECT_EQ(hits[0].at("fingerprint"), hits[1].at("fingerprint"));
}

TEST(ServiceReuseTest, UntenantedRunsKeepLegacyBehavior) {
  // No tenant set: aggregate stats move, the artifact stays unowned, and
  // no hit on it is ever cross-tenant.
  ToyWorld world(150);
  auto input = world.MakeInput(24, 40, 150);
  IndexJobConf conf = world.MakeJoinJob(true);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);
  EFindJobRunner runner(config);
  runner.set_reuse(&store);
  runner.RunWithStrategy(conf, input, Strategy::kRepartition);
  auto warm = runner.RunWithStrategy(conf, input, Strategy::kRepartition);

  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.Entries()[0].owner, "");
  EXPECT_EQ(warm.counters.Get("efind.reuse.cross_tenant_hits"), 0.0);
  reuse::MaterializedStore::ResolveOutcome outcome;
  ASSERT_NE(store.Resolve(store.Entries()[0].fingerprint, nullptr, nullptr,
                          &outcome, "bob"),
            nullptr);
  EXPECT_EQ(outcome.owner, "");
  EXPECT_FALSE(outcome.cross_tenant);
}

TEST(ServiceReuseTest, ServiceSurfacesCrossTenantHits) {
  // Through the full service: two tenants submit the same template with a
  // shared store attached. The first admission publishes; later admissions
  // by the *other* tenant hit cross-tenant (same fingerprint => hit,
  // regardless of tenant).
  ToyWorld world(200, 60);
  auto input = world.MakeInput(24, 40, 200);
  IndexJobConf first = world.MakeJoinJob(false);
  IndexJobConf followup = world.MakeJoinJob(true);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);

  JobService svc(config, {});
  svc.AddTenant("alice", 1.0, TenantQuota{});
  svc.AddTenant("bob", 1.0, TenantQuota{});
  const int producer = svc.AddTemplate({&first, &input,
                                        Strategy::kRepartition});
  const int consumer = svc.AddTemplate({&followup, &input,
                                        Strategy::kRepartition});
  svc.set_store(&store);

  // alice's job publishes the shuffle artifact; bob's two jobs consume it.
  const std::vector<Arrival> arrivals = {
      {0.0, 0, producer},
      {1.0, 1, consumer},
      {2.0, 1, consumer},
  };
  const ServiceResult r = svc.Run(arrivals);

  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_EQ(r.jobs[0].counters.Get("efind.reuse.misses"), 1.0);
  EXPECT_EQ(r.jobs[1].counters.Get("efind.reuse.cross_tenant_hits"), 1.0);
  EXPECT_EQ(r.jobs[2].counters.Get("efind.reuse.cross_tenant_hits"), 1.0);
  EXPECT_EQ(r.counters.Get("efind.reuse.cross_tenant_hits"), 2.0);

  // Per tenant, from each job's counters: bob hit twice, both cross-
  // tenant; alice made no cross-tenant hit. Her artifact served both.
  double hits[2] = {0.0, 0.0}, cross[2] = {0.0, 0.0};
  for (const JobOutcome& job : r.jobs) {
    hits[job.tenant] += job.counters.Get("efind.reuse.hits");
    cross[job.tenant] += job.counters.Get("efind.reuse.cross_tenant_hits");
  }
  EXPECT_EQ(hits[1], 2.0);
  EXPECT_EQ(cross[1], 2.0);
  EXPECT_EQ(cross[0], 0.0);
  ASSERT_EQ(store.Entries().size(), 1u);
  EXPECT_EQ(store.Entries()[0].owner, "alice");
  EXPECT_EQ(store.Entries()[0].reuse_count, 2u);

  // Reuse changed bob's cost, not his answer: his jobs still checksum
  // identically to a store-less direct run.
  EFindJobRunner plain(config);
  const auto ref =
      plain.RunWithStrategy(followup, input, Strategy::kRepartition);
  EXPECT_EQ(r.jobs[1].output_checksum, reuse::ChecksumSplits(ref.outputs));
  EXPECT_EQ(r.jobs[2].output_checksum, reuse::ChecksumSplits(ref.outputs));
}

TEST(ServiceReuseTest, ServiceReuseIsThreadCountInvariant) {
  ToyWorld world1(200, 60), world8(200, 60);
  ClusterConfig config;
  const std::vector<Arrival> arrivals = {
      {0.0, 0, 0}, {1.0, 1, 1}, {2.0, 1, 1}, {3.0, 0, 1}};

  auto run = [&](ToyWorld& world, int threads) {
    auto input = world.MakeInput(24, 40, 200);
    IndexJobConf first = world.MakeJoinJob(false);
    IndexJobConf followup = world.MakeJoinJob(true);
    reuse::MaterializedStore store(64ull << 20, config.num_nodes);
    ServiceOptions options;
    options.efind.threads = threads;
    JobService svc(config, options);
    svc.AddTenant("alice", 1.0, TenantQuota{});
    svc.AddTenant("bob", 1.0, TenantQuota{});
    svc.AddTemplate({&first, &input, Strategy::kRepartition});
    svc.AddTemplate({&followup, &input, Strategy::kRepartition});
    svc.set_store(&store);
    return svc.Run(arrivals);
  };
  const ServiceResult r1 = run(world1, 1);
  const ServiceResult r8 = run(world8, 8);
  ASSERT_EQ(r1.jobs.size(), r8.jobs.size());
  for (size_t i = 0; i < r1.jobs.size(); ++i) {
    EXPECT_EQ(r1.jobs[i].output_checksum, r8.jobs[i].output_checksum) << i;
    EXPECT_EQ(r1.jobs[i].finish, r8.jobs[i].finish) << i;
    EXPECT_EQ(r1.jobs[i].counters.values(), r8.jobs[i].counters.values())
        << i;
  }
  EXPECT_EQ(r1.counters.Get("efind.reuse.cross_tenant_hits"),
            r8.counters.Get("efind.reuse.cross_tenant_hits"));
}

// --- speculation is pure timing (engine level) -----------------------------

/// Charges simulated time per record so stragglers have something to
/// inflate; never changes the record.
class ChargeStage : public RecordStage {
 public:
  std::string name() const override { return "charge"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    ctx->AddSimTime(0.01);
    out->Emit(std::move(record));
  }
};

TEST(ServiceReuseTest, SpeculationNeverChangesJobOutputs) {
  // Speculative backups race stragglers; records and counters must be
  // bit-identical with and without them, only simulated time may move.
  ClusterConfig config;
  config.straggler_rate = 0.25;
  config.straggler_slowdown = 5.0;
  config.speculation_threshold = 1.5;
  config.fault_seed = 11;

  JobConfig job;
  job.map_stages.push_back(std::make_shared<ChargeStage>());
  job.reducer = std::make_shared<testing_util::CountReducer>();
  std::vector<InputSplit> input(48);
  int id = 0;
  for (int s = 0; s < 48; ++s) {
    input[s].node = s % config.num_nodes;
    for (int r = 0; r < 20; ++r) {
      input[s].records.push_back(
          Record("k" + std::to_string(id % 31), std::to_string(id)));
      ++id;
    }
  }

  struct Observation {
    std::vector<Record> records;
    std::map<std::string, double, std::less<>> counters;
    size_t launched;
  };
  std::vector<Observation> runs;
  for (bool speculate : {false, true}) {
    ClusterConfig c = config;
    c.speculative_execution = speculate;
    // The backups launched in both phases, read off the session's
    // `mr.{map,reduce}.speculative_launched` counters.
    obs::ObsSession session;
    JobRunner runner(c);
    runner.set_obs(&session);
    JobResult r = runner.Run(job, input);
    obs::MetricsRegistry& mx = session.metrics();
    const auto launched = static_cast<size_t>(
        mx.CounterValue(mx.Counter("mr.map.speculative_launched")) +
        mx.CounterValue(mx.Counter("mr.reduce.speculative_launched")));
    runs.push_back({Sorted(r.CollectRecords()), r.counters.values(), launched});
  }
  EXPECT_EQ(runs[0].launched, 0u);
  EXPECT_GT(runs[1].launched, 0u);
  EXPECT_EQ(runs[1].records, runs[0].records);
  EXPECT_EQ(runs[1].counters, runs[0].counters);
}

}  // namespace
}  // namespace service
}  // namespace efind
