// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Produces a Chrome trace exercising every multi-tenant job service event
// the schema defines (DESIGN.md §14), for scripts/trace_lint.py to
// validate (the `service_trace_lint` ctest entry, labels `obs`/`service`):
// a three-tenant burst under a straggler-heavy fault matrix drives
// admissions (`job_admitted`), a tight quota on one tenant drives
// deferrals (`job_deferred`) and a rejection (`job_rejected`), fair-share
// contention preempts speculative backups (`backup_preempted`), and every
// finished job closes a `service_job` span.
//
// Usage: service_trace_demo TRACE_OUT.json

#include <cstdio>

#include "obs/export.h"
#include "obs/obs.h"
#include "service/job_service.h"
#include "tests/test_util.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s TRACE_OUT.json\n", argv[0]);
    return 2;
  }

  using efind::service::Arrival;
  using efind::service::JobService;
  using efind::service::ServiceOptions;
  using efind::service::ServiceResult;
  using efind::service::TenantQuota;

  efind::ClusterConfig config;
  config.straggler_rate = 0.2;
  config.straggler_slowdown = 5.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.fault_seed = 7;

  efind::testing_util::ToyWorld world(300, 60);
  const auto input = world.MakeInput(36, 30, 300);
  const efind::IndexJobConf map_only = world.MakeJoinJob(false);
  const efind::IndexJobConf with_reduce = world.MakeJoinJob(true);

  ServiceOptions options;
  options.efind.threads = 4;
  JobService svc(config, options);
  // bravo's tight quota forces deferrals and a rejection under the burst.
  svc.AddTenant("alpha", 3.0, TenantQuota{});
  svc.AddTenant("bravo", 1.0, TenantQuota{/*max_in_system=*/1,
                                          /*max_backlog=*/1});
  svc.AddTenant("carol", 1.0, TenantQuota{});
  svc.AddTemplate({&map_only, &input, efind::Strategy::kLookupCache});
  svc.AddTemplate({&with_reduce, &input, efind::Strategy::kRepartition});

  efind::obs::ObsSession session;
  svc.set_obs(&session);

  // A near-simultaneous burst: every tenant's jobs contend at once, so
  // primaries queue behind stragglers' backups and preemption fires.
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 4; ++i) {
    arrivals.push_back({i * 1e-3, /*tenant=*/0, /*job_template=*/i % 2});
    arrivals.push_back({i * 1e-3 + 2e-4, /*tenant=*/1, /*job_template=*/1});
    arrivals.push_back({i * 1e-3 + 4e-4, /*tenant=*/2, /*job_template=*/0});
  }
  const ServiceResult r = svc.Run(arrivals);

  size_t finished = 0, deferred = 0, rejected = 0, preempted = 0;
  for (const auto& t : r.tenants) {
    finished += t.finished;
    deferred += t.deferred;
    preempted += t.backups_preempted;
  }
  for (const auto& job : r.jobs) rejected += job.rejected ? 1 : 0;
  if (finished == 0 || deferred == 0 || rejected == 0 || preempted == 0) {
    std::fprintf(stderr,
                 "service_trace_demo: expected finishes, deferrals, a "
                 "rejection and a backup preemption (got %zu/%zu/%zu/%zu)\n",
                 finished, deferred, rejected, preempted);
    return 1;
  }

  std::string error;
  if (!efind::obs::WriteFile(
          argv[1],
          efind::obs::ChromeTraceJson(session.trace(), config.num_nodes),
          &error)) {
    std::fprintf(stderr, "service_trace_demo: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "service_trace_demo: wrote %s (%zu events)\n", argv[1],
               session.trace().events().size());
  return 0;
}
