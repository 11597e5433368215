// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared harness for the per-figure benchmarks. Each bench binary:
//   1. builds its workload and runs every experiment configuration once,
//      printing a paper-style table (strategy rows, speedups vs baseline);
//   2. prints one JSON line per configuration with the host wall-clock time
//      (the execution-engine speedup signal; see --threads below);
//   3. registers the measured simulated times as google-benchmark entries
//      (manual time), so standard benchmark tooling sees one entry per bar.
//
// Times are SIMULATED cluster seconds (see DESIGN.md §3) — the shapes, not
// the absolute values, are the reproduction target. Wall-clock milliseconds
// measure the engine itself, not the modeled cluster.
//
// Every bench parses one shared flag family via `ParseBenchOptions(&argc,
// argv)` first thing in main: `--threads` (worker threads; results are
// bit-identical for any value), the `--fault-*` fault-injection knobs,
// `--cache-capacity`, the cross-job materialization knobs
// `--reuse-capacity` / `--reuse-dir` / `--no-reuse` (DESIGN.md §9), and the
// observability outputs `--trace-out` / `--report` / `--report-text`
// (DESIGN.md §8). The JSON report echoes the full effective configuration
// so stored results are self-describing.

#ifndef EFIND_BENCH_BENCH_UTIL_H_
#define EFIND_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/durable.h"
#include "common/thread_pool.h"
#include "efind/efind_job_runner.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"

namespace efind {
namespace bench {

/// Strips a `--threads=N` argument from the command line and exports it as
/// EFIND_THREADS so every runner (and nested JobRunner) picks it up.
/// Returns the resolved worker-thread count.
inline int InitThreads(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int n = std::atoi(argv[i] + 10);
      if (n > 0) {
        const std::string value = std::to_string(n);
        setenv("EFIND_THREADS", value.c_str(), /*overwrite=*/1);
      }
      continue;  // Consumed: benchmark's own flag parser must not see it.
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return ResolveThreadCount(0);
}

/// Strips `--fault-*` arguments from the command line and applies them to
/// `*config`, so any bench can be re-run under an injected fault load
/// (DESIGN.md §7). Call after InitThreads and before building runners.
/// Flags (all optional; defaults leave the cluster fault-free):
///   --fault-task-failure-rate=X    share of tasks that fail and re-run
///   --fault-straggler-rate=X       share of tasks inflated as stragglers
///   --fault-straggler-slowdown=X   straggler inflation factor (>= 1)
///   --fault-seed=N                 deterministic fault-injection seed
///   --fault-down-hosts=N           N seeded random whole-run host outages
///   --fault-down-host=K            host K down whole run (repeatable)
///   --fault-degraded-host=K        host K degraded (repeatable)
///   --fault-degraded-factor=X      degraded-host service stretch (>= 1)
///   --fault-speculation            enable speculative backup tasks
///   --fault-speculation-threshold=X  backup trigger vs wave median (> 1)
///   --fault-backoff=X              lookup retry backoff seconds
///   --fault-max-attempts=N         lookup attempts before failover
///   --fault-failover-replicas=N    replica hosts tried per lookup
/// Service-level fault model + resilience layer (DESIGN.md §10):
///   --fault-latency-rate=X         share of lookups hit by latency spikes
///   --fault-latency-factor=X       heavy-tail spike stretch scale (>= 1)
///   --fault-flaky-rate=X           per-attempt transient lookup error rate
///   --fault-corrupt-rate=X         lookup-response corruption rate
///   --fault-corrupt-artifact-rate=X  artifact-chunk corruption rate
///   --fault-integrity-refetches=N  fast re-fetches before the slow path
///   --hedge                        enable hedged (backup) lookups
///   --hedge-quantile=X             latency quantile deriving hedge delay
///   --breaker-threshold=N          consecutive failures opening a breaker
///                                  (0 disables circuit breakers)
///   --breaker-open-lookups=N       lookups an open breaker stays open for
/// Exits with an error message if the resulting config is invalid.
inline void ApplyFaultFlags(int* argc, char** argv, ClusterConfig* config) {
  int out = 1;
  bool touched = false;
  auto value = [](const char* arg, const char* flag) -> const char* {
    const size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 && arg[n] == '=' ? arg + n + 1
                                                            : nullptr;
  };
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if ((v = value(arg, "--fault-task-failure-rate")) != nullptr) {
      config->task_failure_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-straggler-rate")) != nullptr) {
      config->straggler_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-straggler-slowdown")) != nullptr) {
      config->straggler_slowdown = std::atof(v);
    } else if ((v = value(arg, "--fault-seed")) != nullptr) {
      config->fault_seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = value(arg, "--fault-down-hosts")) != nullptr) {
      config->random_down_hosts = std::atoi(v);
    } else if ((v = value(arg, "--fault-down-host")) != nullptr) {
      config->host_downtimes.push_back({std::atoi(v)});
    } else if ((v = value(arg, "--fault-degraded-host")) != nullptr) {
      config->degraded_hosts.push_back(std::atoi(v));
    } else if ((v = value(arg, "--fault-degraded-factor")) != nullptr) {
      config->degraded_service_factor = std::atof(v);
    } else if (std::strcmp(arg, "--fault-speculation") == 0) {
      config->speculative_execution = true;
    } else if ((v = value(arg, "--fault-speculation-threshold")) != nullptr) {
      config->speculation_threshold = std::atof(v);
      config->speculative_execution = true;
    } else if ((v = value(arg, "--fault-backoff")) != nullptr) {
      config->lookup_retry_backoff_sec = std::atof(v);
    } else if ((v = value(arg, "--fault-max-attempts")) != nullptr) {
      config->lookup_max_attempts = std::atoi(v);
    } else if ((v = value(arg, "--fault-failover-replicas")) != nullptr) {
      config->failover_replicas = std::atoi(v);
    } else if ((v = value(arg, "--fault-latency-rate")) != nullptr) {
      config->lookup_latency_spike_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-latency-factor")) != nullptr) {
      config->lookup_latency_spike_factor = std::atof(v);
    } else if ((v = value(arg, "--fault-flaky-rate")) != nullptr) {
      config->lookup_flaky_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-corrupt-rate")) != nullptr) {
      config->lookup_corrupt_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-corrupt-artifact-rate")) != nullptr) {
      config->artifact_corrupt_rate = std::atof(v);
    } else if ((v = value(arg, "--fault-integrity-refetches")) != nullptr) {
      config->integrity_max_refetches = std::atoi(v);
    } else if (std::strcmp(arg, "--hedge") == 0) {
      config->hedged_lookups = true;
    } else if ((v = value(arg, "--hedge-quantile")) != nullptr) {
      config->hedge_quantile = std::atof(v);
      config->hedged_lookups = true;
    } else if ((v = value(arg, "--breaker-threshold")) != nullptr) {
      config->breaker_failure_threshold = std::atoi(v);
    } else if ((v = value(arg, "--breaker-open-lookups")) != nullptr) {
      config->breaker_open_lookups = std::atoi(v);
    } else {
      argv[out++] = argv[i];
      continue;  // Not ours: leave for benchmark's flag parser.
    }
    touched = true;
  }
  *argc = out;
  if (touched) {
    const char* why = nullptr;
    if (!ValidateClusterConfig(*config, &why)) {
      std::fprintf(stderr, "invalid --fault-* configuration: %s\n",
                   why != nullptr ? why : "unknown");
      std::exit(2);
    }
  }
}

/// Every shared bench option, parsed once by `ParseBenchOptions`. Benches
/// read the cluster config from `config`, seed runner options from
/// `MakeEFindOptions()`, and attach observability to every runner they
/// create with `runner.set_obs(opts.obs())` (a null session is a no-op).
struct BenchOptions {
  /// Resolved worker-thread count (--threads / EFIND_THREADS).
  int threads = 1;
  /// Cluster configuration with every --fault-* flag applied.
  ClusterConfig config;
  /// Lookup-cache entries per node (--cache-capacity).
  size_t cache_capacity = 1024;
  /// Materialized-artifact store capacity in bytes (--reuse-capacity).
  uint64_t reuse_capacity = 64ull << 20;
  /// Directory for the store manifest dump (--reuse-dir); empty = off.
  std::string reuse_dir;
  /// Disables cross-job reuse entirely (--no-reuse): `reuse()` returns
  /// null, so reuse-aware benches run exactly the store-less path.
  bool no_reuse = false;
  /// Zipf skew θ for workloads with a skewable key draw (--skew); 0 keeps
  /// each workload's stock distribution (DESIGN.md §12).
  double skew = 0.0;
  /// Salted sub-partitions per detected hot key (--salt-fanout).
  int salt_fanout = 8;
  /// SkewDetector hot-key share threshold (--hot-key-threshold).
  double hot_key_threshold = 0.05;
  /// Packed-object-store page size in bytes (--store-page-bytes); consumed
  /// by store-backed benches when they build their store (DESIGN.md §13).
  size_t store_page_bytes = 4096;
  /// Packed-object-store fill degree in (0, 1] (--store-fill).
  double store_fill = 1.0;
  /// Directory for write-ahead journals and other durable state
  /// (--journal-dir); empty = the bench picks a scratch directory
  /// (DESIGN.md §15).
  std::string journal_dir;
  /// Crash-injection arming (--crash-point=<site>:<n> with
  /// --crash-mode=kill|torn_truncate|torn_bitflip). Empty = disarmed.
  /// Parsed and armed process-wide via `durable::SetCrashConfig`, so any
  /// bench can be crashed at a named commit site for recovery drills.
  std::string crash_point;
  std::string crash_mode = "kill";
  /// Observability output paths; empty = off.
  std::string trace_out;        // Chrome trace-event JSON.
  std::string report_out;       // Run report, JSON.
  std::string report_text_out;  // Run report, human-readable.

  /// The bench-wide observability session; non-null iff any of the output
  /// paths was given. Shared by every runner of the bench, so the exported
  /// trace covers the whole invocation end to end.
  std::unique_ptr<obs::ObsSession> session;
  obs::ObsSession* obs() const { return session.get(); }

  /// The bench-wide artifact store, lazily built on first use so benches
  /// that never call this pay nothing. Null under --no-reuse. Only benches
  /// that opt into cross-job reuse attach it (`runner.set_reuse(...)`);
  /// everything else ignores the knobs, keeping their results identical.
  mutable std::unique_ptr<reuse::MaterializedStore> reuse_store;
  reuse::MaterializedStore* reuse() const {
    if (no_reuse) return nullptr;
    if (reuse_store == nullptr) {
      reuse_store = std::make_unique<reuse::MaterializedStore>(
          reuse_capacity, config.num_nodes);
    }
    return reuse_store.get();
  }

  /// Runner options seeded with the parsed cache capacity.
  EFindOptions MakeEFindOptions() const {
    EFindOptions out;
    out.cache_capacity = cache_capacity;
    out.salt_fanout = salt_fanout;
    out.hot_key_threshold = hot_key_threshold;
    return out;
  }
};

/// Parses and strips the shared bench flag family — consolidating the
/// former per-bench InitThreads + ApplyFaultFlags pairs — leaving unknown
/// arguments for benchmark's own parser. On top of `--threads=N` and the
/// `--fault-*` family above:
///   --cache-capacity=N   lookup-cache entries per node (default 1024)
///   --skew=X             Zipf θ for skewable workloads (default 0=stock)
///   --salt-fanout=N      salted sub-partitions per hot key (default 8)
///   --hot-key-threshold=X  SkewDetector hot-key share gate (default 0.05)
///   --store-page-bytes=N   packed-store page size in [64, 65536] (4096)
///   --store-fill=X         packed-store fill degree in (0, 1] (default 1)
///   --store-batch-depth=N  outstanding store lookups per flush (default 16;
///                          1 = serial, applied to config.store_batch_depth)
///   --reuse-capacity=N   artifact-store capacity in bytes (default 64 MiB)
///   --reuse-dir=PATH     write the store manifest to PATH/manifest.json
///                        after the run (reuse-aware benches only)
///   --no-reuse           disable the cross-job artifact store
///   --journal-dir=PATH   directory for write-ahead journals / durable
///                        state (recovery-aware benches; DESIGN.md §15)
///   --crash-point=S:N    arm deterministic crash injection: die (or tear,
///                        per --crash-mode) on the Nth hit of commit site S
///   --crash-mode=M       kill | torn_truncate | torn_bitflip (default kill)
///   --trace-out=PATH     write a Chrome trace-event JSON of the whole
///                        bench run (open in chrome://tracing or Perfetto)
///   --report=PATH        write a JSON run report (config echo, metric
///                        snapshots, trace summary)
///   --report-text=PATH   write the human-readable run report
inline BenchOptions ParseBenchOptions(int* argc, char** argv) {
  BenchOptions opts;
  opts.threads = InitThreads(argc, argv);
  auto value = [](const char* arg, const char* flag) -> const char* {
    const size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 && arg[n] == '=' ? arg + n + 1
                                                            : nullptr;
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if ((v = value(arg, "--cache-capacity")) != nullptr) {
      const long long n = std::atoll(v);
      if (n <= 0) {
        std::fprintf(stderr, "invalid --cache-capacity=%s\n", v);
        std::exit(2);
      }
      opts.cache_capacity = static_cast<size_t>(n);
    } else if ((v = value(arg, "--store-page-bytes")) != nullptr) {
      const long long n = std::atoll(v);
      if (n < 64 || n > 65536) {
        std::fprintf(stderr,
                     "invalid --store-page-bytes=%s (need 64..65536)\n", v);
        std::exit(2);
      }
      opts.store_page_bytes = static_cast<size_t>(n);
    } else if ((v = value(arg, "--store-fill")) != nullptr) {
      const double f = std::atof(v);
      if (f <= 0.0 || f > 1.0) {
        std::fprintf(stderr, "invalid --store-fill=%s (need (0, 1])\n", v);
        std::exit(2);
      }
      opts.store_fill = f;
    } else if ((v = value(arg, "--store-batch-depth")) != nullptr) {
      const int n = std::atoi(v);
      if (n < 1) {
        std::fprintf(stderr, "invalid --store-batch-depth=%s (need >= 1)\n",
                     v);
        std::exit(2);
      }
      opts.config.store_batch_depth = n;
    } else if ((v = value(arg, "--reuse-capacity")) != nullptr) {
      const long long n = std::atoll(v);
      if (n <= 0) {
        std::fprintf(stderr, "invalid --reuse-capacity=%s\n", v);
        std::exit(2);
      }
      opts.reuse_capacity = static_cast<uint64_t>(n);
    } else if ((v = value(arg, "--reuse-dir")) != nullptr) {
      opts.reuse_dir = v;
    } else if (std::strcmp(arg, "--no-reuse") == 0) {
      opts.no_reuse = true;
    } else if ((v = value(arg, "--skew")) != nullptr) {
      opts.skew = std::atof(v);
      if (opts.skew < 0.0) {
        std::fprintf(stderr, "invalid --skew=%s\n", v);
        std::exit(2);
      }
    } else if ((v = value(arg, "--salt-fanout")) != nullptr) {
      const int n = std::atoi(v);
      if (n < 2) {
        std::fprintf(stderr, "invalid --salt-fanout=%s (need >= 2)\n", v);
        std::exit(2);
      }
      opts.salt_fanout = n;
    } else if ((v = value(arg, "--hot-key-threshold")) != nullptr) {
      const double t = std::atof(v);
      if (t <= 0.0 || t > 1.0) {
        std::fprintf(stderr, "invalid --hot-key-threshold=%s\n", v);
        std::exit(2);
      }
      opts.hot_key_threshold = t;
    } else if ((v = value(arg, "--journal-dir")) != nullptr) {
      opts.journal_dir = v;
    } else if ((v = value(arg, "--crash-point")) != nullptr) {
      opts.crash_point = v;
    } else if ((v = value(arg, "--crash-mode")) != nullptr) {
      opts.crash_mode = v;
    } else if ((v = value(arg, "--trace-out")) != nullptr) {
      opts.trace_out = v;
    } else if ((v = value(arg, "--report")) != nullptr) {
      opts.report_out = v;
    } else if ((v = value(arg, "--report-text")) != nullptr) {
      opts.report_text_out = v;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  durable::CrashMode mode = durable::CrashMode::kKill;
  if (opts.crash_mode == "torn_truncate") {
    mode = durable::CrashMode::kTornTruncate;
  } else if (opts.crash_mode == "torn_bitflip") {
    mode = durable::CrashMode::kTornBitflip;
  } else if (opts.crash_mode != "kill") {
    std::fprintf(stderr,
                 "invalid --crash-mode=%s (need kill | torn_truncate | "
                 "torn_bitflip)\n",
                 opts.crash_mode.c_str());
    std::exit(2);
  }
  if (!opts.crash_point.empty()) {
    durable::CrashConfig crash;
    if (!durable::ParseCrashSpec(opts.crash_point, &crash)) {
      std::fprintf(stderr, "invalid --crash-point=%s (need <site>:<n>)\n",
                   opts.crash_point.c_str());
      std::exit(2);
    }
    crash.mode = mode;
    durable::SetCrashConfig(crash);
  }
  ApplyFaultFlags(argc, argv, &opts.config);
  if (!opts.trace_out.empty() || !opts.report_out.empty() ||
      !opts.report_text_out.empty()) {
    opts.session = std::make_unique<obs::ObsSession>();
  }
  return opts;
}

/// The full effective configuration of a bench run as (key, value) string
/// pairs — echoed as a JSON line by `PrintJsonReport` and into the run
/// reports, so a stored result records exactly what produced it.
inline std::vector<std::pair<std::string, std::string>> ConfigPairs(
    const BenchOptions& opts) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  auto hosts = [](const std::vector<int>& nodes) {
    std::string s;
    for (int n : nodes) {
      if (!s.empty()) s += " ";
      s += std::to_string(n);
    }
    return s;
  };
  const ClusterConfig& c = opts.config;
  std::vector<int> down;
  for (const auto& d : c.host_downtimes) down.push_back(d.node);
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("threads", std::to_string(opts.threads));
  out.emplace_back("num_nodes", std::to_string(c.num_nodes));
  out.emplace_back("map_slots_per_node",
                   std::to_string(c.map_slots_per_node));
  out.emplace_back("reduce_slots_per_node",
                   std::to_string(c.reduce_slots_per_node));
  out.emplace_back("cache_capacity", std::to_string(opts.cache_capacity));
  out.emplace_back("reuse", opts.no_reuse ? "off" : "on");
  out.emplace_back("reuse_capacity", std::to_string(opts.reuse_capacity));
  out.emplace_back("reuse_dir", opts.reuse_dir);
  out.emplace_back("store_page_bytes",
                   std::to_string(opts.store_page_bytes));
  out.emplace_back("store_fill", num(opts.store_fill));
  out.emplace_back("journal_dir", opts.journal_dir);
  out.emplace_back("crash_point", opts.crash_point);
  out.emplace_back("crash_mode", opts.crash_mode);
  out.emplace_back("store_batch_depth",
                   std::to_string(c.store_batch_depth));
  out.emplace_back("page_read_sec", num(c.page_read_sec));
  out.emplace_back("store_io_parallelism",
                   std::to_string(c.store_io_parallelism));
  out.emplace_back("skew", num(opts.skew));
  out.emplace_back("salt_fanout", std::to_string(opts.salt_fanout));
  out.emplace_back("hot_key_threshold", num(opts.hot_key_threshold));
  out.emplace_back("fault_seed", std::to_string(c.fault_seed));
  out.emplace_back("task_failure_rate", num(c.task_failure_rate));
  out.emplace_back("straggler_rate", num(c.straggler_rate));
  out.emplace_back("straggler_slowdown", num(c.straggler_slowdown));
  out.emplace_back("random_down_hosts", std::to_string(c.random_down_hosts));
  out.emplace_back("down_hosts", hosts(down));
  out.emplace_back("degraded_hosts", hosts(c.degraded_hosts));
  out.emplace_back("degraded_factor", num(c.degraded_service_factor));
  out.emplace_back("speculation",
                   c.speculative_execution ? "true" : "false");
  out.emplace_back("speculation_threshold", num(c.speculation_threshold));
  out.emplace_back("lookup_backoff_sec", num(c.lookup_retry_backoff_sec));
  out.emplace_back("lookup_max_attempts",
                   std::to_string(c.lookup_max_attempts));
  out.emplace_back("failover_replicas",
                   std::to_string(c.failover_replicas));
  out.emplace_back("latency_spike_rate", num(c.lookup_latency_spike_rate));
  out.emplace_back("latency_spike_factor",
                   num(c.lookup_latency_spike_factor));
  out.emplace_back("flaky_rate", num(c.lookup_flaky_rate));
  out.emplace_back("lookup_corrupt_rate", num(c.lookup_corrupt_rate));
  out.emplace_back("artifact_corrupt_rate", num(c.artifact_corrupt_rate));
  out.emplace_back("integrity_max_refetches",
                   std::to_string(c.integrity_max_refetches));
  out.emplace_back("hedged_lookups", c.hedged_lookups ? "true" : "false");
  out.emplace_back("hedge_quantile", num(c.hedge_quantile));
  out.emplace_back("breaker_threshold",
                   std::to_string(c.breaker_failure_threshold));
  out.emplace_back("breaker_open_lookups",
                   std::to_string(c.breaker_open_lookups));
  return out;
}

/// One measured bar: configuration label -> simulated seconds, plus the
/// host wall-clock time the engine took to produce it.
struct Measurement {
  std::string name;
  double sim_seconds = 0;
  std::string plan;
  double wall_ms = 0;
  /// Worker threads the measurement ran with; 0 means the process's
  /// resolved count (--threads / EFIND_THREADS).
  int threads = 0;
};

/// Collects measurements and emits the table, the JSON wall-clock report,
/// and benchmark entries.
class FigureHarness {
 public:
  explicit FigureHarness(std::string figure) : figure_(std::move(figure)) {}

  void Add(const std::string& name, double sim_seconds,
           const std::string& plan = "", double wall_ms = 0,
           int threads = 0) {
    measurements_.push_back({name, sim_seconds, plan, wall_ms, threads});
  }

  /// Runs the six paper configurations for one (conf, input) point:
  /// Base, Cache, Repart, Idxloc (skipped when infeasible), Optimized,
  /// Dynamic. `prefix` labels the x-axis point (e.g. "delay=2ms").
  /// `repart_plan`, when non-null, overrides the fixed "Repart"/"Idxloc"
  /// bars (the paper applies re-partitioning to the single most beneficial
  /// index of multi-index jobs, cache for the rest).
  void RunAllStrategies(EFindJobRunner* runner, const IndexJobConf& conf,
                        const std::vector<InputSplit>& input,
                        const std::string& prefix,
                        const JobPlan* repart_plan = nullptr,
                        const JobPlan* idxloc_plan = nullptr,
                        bool include_idxloc = true) {
    auto label = [&](const char* s) {
      return prefix.empty() ? std::string(s) : prefix + "/" + s;
    };
    auto timed = [&](auto&& run) {
      const auto start = std::chrono::steady_clock::now();
      auto result = run();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      return std::pair<decltype(result), double>(std::move(result), wall_ms);
    };
    auto [base, base_ms] = timed([&] {
      return runner->RunWithStrategy(conf, input, Strategy::kBaseline);
    });
    Add(label("base"), base.sim_seconds, base.plan.ToString(), base_ms);
    auto [cache, cache_ms] = timed([&] {
      return runner->RunWithStrategy(conf, input, Strategy::kLookupCache);
    });
    Add(label("cache"), cache.sim_seconds, cache.plan.ToString(), cache_ms);
    auto [repart, repart_ms] = timed([&] {
      return repart_plan != nullptr
                 ? runner->RunWithPlan(conf, input, *repart_plan)
                 : runner->RunWithStrategy(conf, input,
                                           Strategy::kRepartition);
    });
    Add(label("repart"), repart.sim_seconds, repart.plan.ToString(),
        repart_ms);
    if (include_idxloc) {
      auto [idxloc, idxloc_ms] = timed([&] {
        return idxloc_plan != nullptr
                   ? runner->RunWithPlan(conf, input, *idxloc_plan)
                   : runner->RunWithStrategy(conf, input,
                                             Strategy::kIndexLocality);
      });
      Add(label("idxloc"), idxloc.sim_seconds, idxloc.plan.ToString(),
          idxloc_ms);
    }
    auto [optimized, optimized_ms] = timed([&] {
      CollectedStats stats = runner->CollectStatistics(conf, input);
      JobPlan plan = runner->PlanFromStats(conf, stats);
      auto result = runner->RunWithPlan(conf, input, plan, &stats);
      result.plan = plan;
      return result;
    });
    Add(label("optimized"), optimized.sim_seconds,
        optimized.plan.ToString(), optimized_ms);
    auto [dynamic, dynamic_ms] = timed([&] {
      return runner->RunDynamic(conf, input);
    });
    Add(label("dynamic"), dynamic.sim_seconds,
        dynamic.plan.ToString() +
            (dynamic.replanned ? " [replanned]" : " [kept]"),
        dynamic_ms);
  }

  /// Prints the paper-style table. Speedups are relative to the first
  /// measurement sharing the same prefix and named ".../base".
  void PrintTable() const {
    std::printf("\n=== %s (simulated cluster seconds) ===\n",
                figure_.c_str());
    std::printf("%-36s %12s %9s  %s\n", "configuration", "sim_seconds",
                "speedup", "plan");
    std::map<std::string, double> base_of;
    for (const auto& m : measurements_) {
      const size_t slash = m.name.rfind('/');
      const std::string prefix =
          slash == std::string::npos ? "" : m.name.substr(0, slash);
      const std::string leaf =
          slash == std::string::npos ? m.name : m.name.substr(slash + 1);
      if (leaf == "base") base_of[prefix] = m.sim_seconds;
    }
    for (const auto& m : measurements_) {
      const size_t slash = m.name.rfind('/');
      const std::string prefix =
          slash == std::string::npos ? "" : m.name.substr(0, slash);
      auto it = base_of.find(prefix);
      if (it != base_of.end() && m.sim_seconds > 0) {
        std::printf("%-36s %12.6f %8.2fx  %s\n", m.name.c_str(),
                    m.sim_seconds, it->second / m.sim_seconds,
                    m.plan.c_str());
      } else {
        std::printf("%-36s %12.6f %9s  %s\n", m.name.c_str(), m.sim_seconds,
                    "-", m.plan.c_str());
      }
    }
    std::fflush(stdout);
  }

  /// Prints one JSON line per measurement with the engine's host wall-clock
  /// time, preceded (when `opts` is given) by a `<figure>/config` line
  /// echoing the full effective configuration.
  void PrintJsonReport(const BenchOptions* opts = nullptr) const {
    const int threads =
        opts != nullptr ? opts->threads : ResolveThreadCount(0);
    if (opts != nullptr) {
      std::string cfg;
      for (const auto& [key, val] : ConfigPairs(*opts)) {
        cfg += ", \"" + key + "\": \"" + obs::JsonEscape(val) + "\"";
      }
      std::printf("{\"bench\": \"%s/config\"%s}\n", figure_.c_str(),
                  cfg.c_str());
    }
    for (const auto& m : measurements_) {
      std::printf(
          "{\"bench\": \"%s/%s\", \"wall_ms\": %.3f, \"threads\": %d}\n",
          figure_.c_str(), m.name.c_str(), m.wall_ms,
          m.threads > 0 ? m.threads : threads);
    }
    std::fflush(stdout);
  }

  /// Registers one manual-time benchmark per measurement.
  void RegisterBenchmarks() const {
    for (const auto& m : measurements_) {
      const double seconds = m.sim_seconds;
      ::benchmark::RegisterBenchmark(
          (figure_ + "/" + m.name).c_str(),
          [seconds](::benchmark::State& state) {
            for (auto _ : state) {
              state.SetIterationTime(seconds);
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(::benchmark::kSecond);
    }
  }

  const std::vector<Measurement>& measurements() const {
    return measurements_;
  }
  const std::string& figure() const { return figure_; }

 private:
  std::string figure_;
  std::vector<Measurement> measurements_;
};

/// Writes the observability outputs requested on the command line (no-op
/// without a session). Returns false after printing the error when a file
/// could not be written.
inline bool WriteObsOutputs(const FigureHarness& harness,
                            const BenchOptions& opts) {
  if (opts.obs() == nullptr) return true;
  bool ok = true;
  auto write = [&](const std::string& path, const std::string& content) {
    if (path.empty()) return;
    std::string error;
    if (obs::WriteFile(path, content, &error)) {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      ok = false;
    }
  };
  write(opts.trace_out,
        obs::ChromeTraceJson(opts.obs()->trace(), opts.config.num_nodes));
  if (!opts.report_out.empty() || !opts.report_text_out.empty()) {
    obs::RunReportInput in;
    in.name = harness.figure();
    for (const auto& m : harness.measurements()) {
      in.sim_seconds += m.sim_seconds;
    }
    in.metrics = &opts.obs()->metrics();
    in.trace = &opts.obs()->trace();
    in.config = ConfigPairs(opts);
    write(opts.report_out, obs::RunReportJson(in));
    write(opts.report_text_out, obs::RunReportText(in));
  }
  return ok;
}

/// Standard main body: print the table and JSON report (with config echo),
/// write any requested observability outputs and the artifact-store
/// manifest (--reuse-dir, when the bench used the store), then hand over
/// to benchmark.
inline int FinishBench(FigureHarness& harness, const BenchOptions& opts,
                       int argc, char** argv) {
  harness.PrintTable();
  harness.PrintJsonReport(&opts);
  bool obs_ok = WriteObsOutputs(harness, opts);
  if (!opts.reuse_dir.empty() && opts.reuse_store != nullptr) {
    const std::string path = opts.reuse_dir + "/manifest.json";
    std::string error;
    if (opts.reuse_store->DumpManifest(path, &error)) {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      obs_ok = false;
    }
  }
  harness.RegisterBenchmarks();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return obs_ok ? 0 : 1;
}

}  // namespace bench
}  // namespace efind

#endif  // EFIND_BENCH_BENCH_UTIL_H_
