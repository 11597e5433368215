// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Crash-recovery acceptance bench (DESIGN.md §15). Three crashed runs are
// staged for real — a forked child arms a crash point (`durable::CrashPoint`
// sites), runs the scenario, and dies mid-commit with `_exit(86)` — and the
// parent then recovers what the child left on disk, under a pinned
// wall-clock budget. Gates (nonzero exit when violated):
//
//   1. zero lost admitted jobs: a service run crashed mid-stream (kill at
//      "service.wal") replays to a backlog satisfying the journal identity
//      submitted == finished + rejected + pending, and re-running every
//      pending arrival through a fresh service finishes all of them with
//      output checksums equal to the uncrashed golden run's.
//   2. zero undetected torn files: a reuse ledger crashed in a torn-write
//      mode (the corrupted journal frame *reaches the disk*) must replay
//      with `torn_tail` set and every surviving record restorable; a packed
//      store whose manifest commit was torn the same way must refuse to
//      open, naming the file. Every planted torn file is counted against
//      the detections.
//   3. bounded replay: the summed recovery time — service journal replay,
//      reuse journal replay + ledger restore, store reopen after the
//      repairing rebuild — stays under 2000 ms (generous for CI hosts;
//      the reference host replays in a few milliseconds).
//
// With `--trace-out` the bench emits `recovery`-category spans/instants
// (`recovery_replay`, `torn_file_detected`, `backlog_requeued`) and
// surfaces the `efind.durable.*` counters into the session metrics; the
// durable-layer totals are always printed as a `recovery/durable` JSON
// line. `--journal-dir` pins the scratch directory (default: a fresh
// mkdtemp under /tmp).

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/durable.h"
#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "reuse/materialized_store.h"
#include "service/arrival.h"
#include "service/job_service.h"
#include "store/packed_store.h"
#include "workloads/synthetic.h"

namespace efind {
namespace {

using service::Arrival;
using store::PackedObjectStore;
using store::PackedStoreBuilder;
using store::PackedStoreOptions;
using service::JobService;
using service::ServiceOptions;
using service::ServiceRecovery;
using service::ServiceResult;
using service::TenantQuota;

/// Forks, arms `crash` in the child, runs `scenario`, and reports the
/// child's exit code (86 = crashed as planted, 0 = site never reached).
int RunCrashed(const durable::CrashConfig& crash,
               const std::function<void()>& scenario) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    durable::SetCrashConfig(crash);
    scenario();
    ::_exit(0);
  }
  if (pid < 0) return -1;
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

template <typename Fn>
double TimedMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Deterministic artifact content: the parent can regenerate the exact
/// splits a recovered ledger entry's checksum was computed over.
std::vector<InputSplit> ArtifactSplits(uint64_t fp, int count) {
  std::vector<InputSplit> splits(1);
  for (int i = 0; i < count; ++i) {
    splits[0].records.push_back(Record(
        "fp" + std::to_string(fp) + "_" + std::to_string(i), "v", 100));
  }
  return splits;
}

constexpr uint64_t kFps[] = {0xA1, 0xB2, 0xC3, 0xD4};

/// The reuse run the child crashes partway through: four publishes, a hit,
/// and an invalidation — seven journal appends when it runs to the end.
void ReuseScenario(const std::string& wal, int num_nodes) {
  reuse::MaterializedStore store(1u << 20, num_nodes);
  if (!store.AttachJournal(wal).ok()) ::_exit(7);
  for (int i = 0; i < 4; ++i) {
    store.Publish(kFps[i], ArtifactSplits(kFps[i], 10), 1.0 + i,
                  reuse::ArtifactLayout::kRepartition, 8,
                  "job:r" + std::to_string(i), "alpha");
  }
  store.Resolve(kFps[0], nullptr);
  store.Invalidate(kFps[1]);
}

PackedStoreOptions StoreOpts(const std::string& dir,
                             const bench::BenchOptions& opts) {
  PackedStoreOptions so;
  so.dir = dir;
  so.page_bytes = 256;
  so.fill = opts.store_fill;
  so.num_partitions = 2;
  so.num_nodes = opts.config.num_nodes;
  return so;
}

/// (Re)builds the packed dataset: 64 keys, one value each.
bool BuildStore(const PackedStoreOptions& so) {
  PackedStoreBuilder builder(so);
  for (int i = 0; i < 64; ++i) {
    builder.Add("key" + std::to_string(i),
                IndexValue("val" + std::to_string(i), 32));
  }
  std::string error;
  return builder.Build(&error) != nullptr;
}

}  // namespace
}  // namespace efind

int main(int argc, char** argv) {
  using namespace efind;
  using durable::CrashConfig;
  using durable::CrashMode;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("recovery");

  std::string dir = opts.journal_dir;
  if (dir.empty()) {
    char tmpl[] = "/tmp/bench_recovery.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "bench_recovery: mkdtemp failed\n");
      return 1;
    }
    dir = made;
  } else {
    ::mkdir(dir.c_str(), 0755);
  }

  bool ok = true;
  auto check = [&](const std::string& what, bool passed) {
    std::printf(
        "{\"bench\": \"recovery/check\", \"what\": \"%s\", \"passed\": %s}\n",
        what.c_str(), passed ? "true" : "false");
    if (!passed) ok = false;
  };
  int planted_torn = 0;
  int detected_torn = 0;

  // Observability: lay the recovery spans out sequentially on a logical
  // clock, one millisecond per replayed record (the scenarios are host
  // actions, not simulated cluster work), and name files relative to the
  // journal directory, so the trace is the same on every run. Host
  // milliseconds go only to the JSON wall fields.
  double tclock = 0.0;
  auto replay_span = [&](const char* kind, uint64_t records,
                         uint64_t recovered) {
    if (opts.obs() == nullptr) return;
    const double dur = 1e-3 * static_cast<double>(records);
    opts.obs()->trace().Span(
        "recovery_replay", "recovery", tclock, dur, obs::kClusterTrack, 0,
        {{"kind", kind},
         {"records", std::to_string(records)},
         {"recovered", std::to_string(recovered)}});
    tclock += dur;
  };
  auto torn_instant = [&](const char* kind, const std::string& rel_path) {
    if (opts.obs() == nullptr) return;
    opts.obs()->trace().Instant("torn_file_detected", "recovery", tclock,
                                obs::kClusterTrack,
                                {{"kind", kind}, {"path", rel_path}});
  };

  // --- shared workload: one synthetic join template -----------------------
  SyntheticOptions syn;
  syn.num_records = 6000;
  syn.num_distinct_keys = 2000;
  syn.num_splits = 24;
  const std::vector<InputSplit> input =
      GenerateSynthetic(syn, opts.config.num_nodes);
  KvStoreOptions kv;
  kv.num_nodes = opts.config.num_nodes;
  KvStore kv_store(kv);
  LoadSyntheticIndex(syn, &kv_store);
  const IndexJobConf conf = MakeSyntheticJoinJob(&kv_store);

  std::vector<Arrival> arrivals;
  for (int i = 0; i < 6; ++i) arrivals.push_back({1e-3 * i, 0, 0});

  auto make_service = [&](const std::string& wal) {
    ServiceOptions so;
    so.efind = opts.MakeEFindOptions();
    so.journal_path = wal;
    auto svc = std::make_unique<JobService>(opts.config, so);
    svc->AddTenant("solo", 1.0, TenantQuota{2, 16});
    svc->AddTemplate({&conf, &input, Strategy::kLookupCache});
    return svc;
  };

  // --- gate 1: the crashed service stream loses no admitted job ----------
  const std::string golden_wal = dir + "/golden_service.wal";
  const ServiceResult golden = make_service(golden_wal)->Run(arrivals);
  const uint64_t golden_checksum =
      golden.jobs.empty() ? 0 : golden.jobs[0].output_checksum;
  check("golden service run finishes every job",
        golden.jobs.size() == arrivals.size() && golden_checksum != 0);

  const std::string crashed_wal = dir + "/service.wal";
  const int service_rc =
      RunCrashed({"service.wal", /*hit=*/9, CrashMode::kKill},
                 [&] { make_service(crashed_wal)->Run(arrivals); });
  check("service crash fired at the planted site",
        service_rc == durable::kCrashExitCode);

  ServiceRecovery svc_rec;
  const double service_replay_ms =
      TimedMs([&] { svc_rec = JobService::Recover(crashed_wal); });
  replay_span("service", svc_rec.records, svc_rec.pending.size());
  check("service journal found with an intact (kill-mode) tail",
        svc_rec.found && !svc_rec.torn_tail);
  check("journal identity: submitted == finished + rejected + pending",
        svc_rec.submitted == svc_rec.finished + svc_rec.rejected +
                                 svc_rec.pending.size());
  check("crashed run left a non-empty backlog", !svc_rec.pending.empty());
  if (opts.obs() != nullptr && !svc_rec.pending.empty()) {
    opts.obs()->trace().Instant(
        "backlog_requeued", "recovery", tclock, obs::kClusterTrack,
        {{"jobs", std::to_string(svc_rec.pending.size())}});
  }

  double rerun_ms = 0.0;
  ServiceResult rerun;
  rerun_ms = TimedMs(
      [&] { rerun = make_service(dir + "/service_rerun.wal")->Run(svc_rec.pending); });
  bool none_lost = rerun.jobs.size() == svc_rec.pending.size();
  for (const auto& job : rerun.jobs) {
    none_lost = none_lost && !job.rejected && job.finish >= 0.0 &&
                job.output_checksum == golden_checksum;
  }
  check("re-enqueued backlog finishes byte-identically (zero lost jobs)",
        none_lost);
  harness.Add("service/replay", 0.0,
              "records=" + std::to_string(svc_rec.records) +
                  " pending=" + std::to_string(svc_rec.pending.size()),
              service_replay_ms);
  harness.Add("service/rerun", rerun.makespan,
              "jobs=" + std::to_string(rerun.jobs.size()), rerun_ms);

  // --- gate 2a: torn reuse-ledger tail is detected, prefix restorable ----
  const std::string reuse_wal = dir + "/reuse.wal";
  ++planted_torn;
  const int reuse_rc =
      RunCrashed({"reuse.wal", /*hit=*/5, CrashMode::kTornTruncate},
                 [&] { ReuseScenario(reuse_wal, opts.config.num_nodes); });
  check("reuse crash fired at the planted site",
        reuse_rc == durable::kCrashExitCode);

  reuse::MaterializedStore::JournalRecovery reuse_rec;
  reuse::MaterializedStore restored(1u << 20, opts.config.num_nodes);
  const double reuse_replay_ms = TimedMs([&] {
    reuse_rec = reuse::MaterializedStore::RecoverJournal(reuse_wal);
    for (const auto& meta : reuse_rec.metas) {
      if (!restored.RestoreEntry(meta,
                                 ArtifactSplits(meta.fingerprint, 10))) {
        reuse_rec.found = false;  // Surfaces as a failed check below.
      }
    }
  });
  replay_span("reuse", reuse_rec.records, reuse_rec.metas.size());
  if (reuse_rec.torn_tail) {
    ++detected_torn;
    torn_instant("journal", "reuse.wal");
  }
  check("torn reuse-journal tail detected", reuse_rec.torn_tail);
  check("every surviving ledger record restores against its checksum",
        reuse_rec.found && reuse_rec.records == 4 &&
            restored.Entries().size() == reuse_rec.metas.size());
  harness.Add("reuse/replay", 0.0,
              "records=" + std::to_string(reuse_rec.records) +
                  " torn_tail=" + (reuse_rec.torn_tail ? "1" : "0"),
              reuse_replay_ms);

  // --- gate 2b: torn store-manifest commit refuses to open ---------------
  const std::string store_dir = dir + "/store";
  ::mkdir(store_dir.c_str(), 0755);
  const PackedStoreOptions store_opts = StoreOpts(store_dir, opts);
  check("packed store builds clean", BuildStore(store_opts));
  ++planted_torn;
  const int store_rc =
      RunCrashed({"store.manifest", /*hit=*/1, CrashMode::kTornTruncate},
                 [&] { BuildStore(store_opts); });
  check("store crash fired at the planted site",
        store_rc == durable::kCrashExitCode);
  {
    std::string error;
    std::unique_ptr<PackedObjectStore> torn_open =
        PackedObjectStore::Open(store_dir, &error);
    const bool refused = torn_open == nullptr &&
                         error.find("torn") != std::string::npos &&
                         error.find(store_dir) != std::string::npos;
    if (refused) {
      ++detected_torn;
      torn_instant("manifest", "store/manifest.txt");
    }
    check("torn manifest refuses to open, naming the file", refused);
  }
  std::unique_ptr<PackedObjectStore> reopened;
  double store_reopen_ms = 0.0;
  {
    check("repairing rebuild succeeds over the torn generation",
          BuildStore(store_opts));
    std::string error;
    store_reopen_ms = TimedMs(
        [&] { reopened = PackedObjectStore::Open(store_dir, &error); });
    std::vector<IndexValue> values;
    check("reopened store serves the dataset",
          reopened != nullptr && reopened->Get("key7", &values).ok() &&
              !values.empty() && values[0].data == "val7");
  }
  replay_span("store", 1, reopened != nullptr ? 1 : 0);
  harness.Add("store/reopen", 0.0, "", store_reopen_ms);

  // --- gate 3: every planted torn file detected; replay under budget -----
  check("zero undetected torn files", detected_torn == planted_torn);
  const double replay_ms =
      service_replay_ms + reuse_replay_ms + store_reopen_ms;
  const double budget_ms = 2000.0;
  std::printf(
      "{\"bench\": \"recovery/replay\", \"wall_ms\": %.3f, "
      "\"budget_ms\": %.0f, \"planted_torn\": %d, \"detected_torn\": %d}\n",
      replay_ms, budget_ms, planted_torn, detected_torn);
  check("recovery replay under the wall-clock budget",
        replay_ms <= budget_ms);

  const durable::DurableStats ds = durable::GetDurableStats();
  std::printf(
      "{\"bench\": \"recovery/durable\", \"commits\": %llu, "
      "\"commit_bytes\": %llu, \"fsyncs\": %llu, \"footer_checks\": %llu, "
      "\"torn_detected\": %llu}\n",
      static_cast<unsigned long long>(ds.commits),
      static_cast<unsigned long long>(ds.commit_bytes),
      static_cast<unsigned long long>(ds.fsyncs),
      static_cast<unsigned long long>(ds.footer_checks),
      static_cast<unsigned long long>(ds.torn_detected));
  if (opts.obs() != nullptr) {
    obs::MetricsRegistry& mx = opts.obs()->metrics();
    mx.Add(mx.Counter("efind.durable.commits"),
           static_cast<double>(ds.commits));
    mx.Add(mx.Counter("efind.durable.commit_bytes"),
           static_cast<double>(ds.commit_bytes));
    mx.Add(mx.Counter("efind.durable.fsyncs"),
           static_cast<double>(ds.fsyncs));
    mx.Add(mx.Counter("efind.durable.footer_checks"),
           static_cast<double>(ds.footer_checks));
    mx.Add(mx.Counter("efind.durable.torn_detected"),
           static_cast<double>(ds.torn_detected));
  }

  const int rc = bench::FinishBench(harness, opts, argc, argv);
  if (!ok) {
    std::fprintf(stderr, "bench_recovery: acceptance gate failed\n");
    return 1;
  }
  return rc;
}
