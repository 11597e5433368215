// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared harness for the per-figure benchmarks. Each bench binary runs
// every experiment configuration once and prints a paper-style table
// (strategy rows, speedups vs baseline) and one JSON line per configuration
// with the host wall-clock time, then registers the simulated times as
// google-benchmark entries (manual time), one entry per bar.
//
// Times are SIMULATED cluster seconds (see DESIGN.md §3) — the shapes, not
// the absolute values, are the reproduction target. Wall-clock milliseconds
// measure the engine itself, not the modeled cluster.
//
// Every bench calls `ParseBenchOptions(&argc, argv)` first thing in main.
// Each shared flag is declared once, in `kKnobs` below; parsing, validation
// (a bad value exits with code 2) and the config echo derive from it.

#ifndef EFIND_BENCH_BENCH_UTIL_H_
#define EFIND_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "efind/efind_job_runner.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"

namespace efind {
namespace bench {

/// Every shared bench option; each field's flag and meaning is its `kKnobs`
/// entry. Runners attach observability with `set_obs(opts.obs())`.
struct BenchOptions {
  int threads = 1;  // Resolved: --threads, else EFIND_THREADS, else cores.
  ClusterConfig config;
  size_t cache_capacity = 1024;
  uint64_t reuse_capacity = 64ull << 20;
  bool no_reuse = false;
  double skew = 0.0;
  int salt_fanout = 8;
  double hot_key_threshold = 0.05;
  size_t store_page_bytes = 4096;
  double store_fill = 1.0;
  std::string journal_dir;
  std::string trace_out;  // Observability output paths; empty = off.
  std::string report_out;

  /// Non-null iff any output path was given; shared by every runner.
  std::unique_ptr<obs::ObsSession> session;
  obs::ObsSession* obs() const { return session.get(); }

  /// The artifact store, built on first use; null under --no-reuse.
  mutable std::unique_ptr<reuse::MaterializedStore> reuse_store;
  reuse::MaterializedStore* reuse() const {
    if (no_reuse) return nullptr;
    if (reuse_store == nullptr) {
      reuse_store = std::make_unique<reuse::MaterializedStore>(
          reuse_capacity, config.num_nodes);
    }
    return reuse_store.get();
  }

  EFindOptions MakeEFindOptions() const {
    EFindOptions out;
    out.cache_capacity = cache_capacity;
    out.salt_fanout = salt_fanout;
    out.hot_key_threshold = hot_key_threshold;
    return out;
  }
};

/// The smallest positive double: a lower bound of `kAboveZero` means > 0.
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/// One bench knob: a `--flag` setting a field, a config-echo entry, or both.
struct Knob {
  const char* flag;  // Spelling without "=value"; null = echo-only.
  const char* key;   // Config-echo key; null = not echoed.
  const char* doc;
  bool is_switch;  // `--flag` alone, vs `--flag=value`.
  /// Applies a value; false = malformed or outside [lo, hi].
  bool (*set)(const Knob&, BenchOptions&, std::string_view);
  std::string (*echo)(const BenchOptions&);
  /// Given for `BenchOptions` fields; `ValidateClusterConfig` checks the rest.
  double lo = -HUGE_VAL, hi = HUGE_VAL;
};

/// The field a member pointer names, in `o` or in `o.config`.
template <class O, class C, class T>
auto& FieldRef(O& o, T C::*field) {
  if constexpr (std::is_same_v<C, ClusterConfig>) {
    return o.config.*field;
  } else {
    return o.*field;
  }
}

/// Strict number parser: the whole string must be consumed, doubles must
/// be finite, and unsigned values cannot be negative.
template <class T>
bool ParseValue(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

inline int NodeOf(int node) { return node; }
inline int NodeOf(const HostDowntime& downtime) { return downtime.node; }

/// Sets F from `value` (a host-list F, the repeatable flags, gets host
/// `value` appended) and, when given, switches `On` on.
template <auto F, auto On = nullptr>
bool SetField(const Knob& knob, BenchOptions& o, std::string_view value) {
  if constexpr (On != nullptr) FieldRef(o, On) = true;
  auto& field = FieldRef(o, F);
  using T = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<T, bool>) {
    field = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = value;
  } else if constexpr (std::is_class_v<T>) {
    int node = 0;
    if (!ParseValue(value, &node)) return false;
    field.push_back({node});
  } else {
    T parsed{};
    if (!ParseValue(value, &parsed)) return false;
    if (parsed < knob.lo || parsed > knob.hi) return false;
    field = parsed;
  }
  return true;
}

template <auto F>
std::string EchoField(const BenchOptions& o) {
  const auto& v = FieldRef(o, F);
  using T = std::decay_t<decltype(v)>;
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_class_v<T>) {
    std::string s;
    for (const auto& host : v) {
      s += (s.empty() ? "" : " ") + std::to_string(NodeOf(host));
    }
    return s;
  } else {
    return std::to_string(v);
  }
}

/// A knob that sets and echoes F (see `SetField`); a null `flag` only echoes.
template <auto F, auto On = nullptr>
constexpr Knob Field(const char* flag, const char* key,
                     const char* doc = nullptr, double lo = -HUGE_VAL,
                     double hi = HUGE_VAL) {
  using T = std::decay_t<decltype(FieldRef(std::declval<BenchOptions&>(), F))>;
  return {flag, key, doc, std::is_same_v<T, bool>, SetField<F, On>,
          EchoField<F>, lo, hi};
}

using BO = BenchOptions;
using CC = ClusterConfig;

/// Every bench knob, in config-echo order.
inline constexpr Knob kKnobs[] = {
    {"--threads", "threads", "worker threads (>= 1)", false,
     [](const Knob& k, BO& o, std::string_view v) {
       if (!SetField<&BO::threads>(k, o, v)) return false;
       setenv("EFIND_THREADS", std::to_string(o.threads).c_str(), 1);
       return true;
     },
     EchoField<&BO::threads>, 1},
    Field<&CC::num_nodes>(nullptr, "num_nodes"),
    Field<&CC::map_slots_per_node>(nullptr, "map_slots_per_node"),
    Field<&CC::reduce_slots_per_node>(nullptr, "reduce_slots_per_node"),
    Field<&BO::cache_capacity>("--cache-capacity", "cache_capacity",
                               "lookup-cache entries per node (>= 1)", 1),
    {"--no-reuse", "reuse", "detach the cross-job artifact store", true,
     SetField<&BO::no_reuse>,
     [](const BO& o) -> std::string { return o.no_reuse ? "off" : "on"; }},
    Field<&BO::reuse_capacity>("--reuse-capacity", "reuse_capacity",
                               "artifact-store capacity in bytes (>= 1)", 1),
    Field<&BO::store_page_bytes>("--store-page-bytes", "store_page_bytes",
                                 "page size in [64, 65536]", 64, 65536),
    Field<&BO::store_fill>("--store-fill", "store_fill",
                           "fill degree in (0, 1]", kAboveZero, 1),
    Field<&BO::journal_dir>("--journal-dir", "journal_dir",
                            "directory for journals and durable state"),
    Field<&CC::store_batch_depth>("--store-batch-depth", "store_batch_depth",
                                  "outstanding store lookups per flush"),
    Field<&CC::page_read_sec>(nullptr, "page_read_sec"),
    Field<&CC::store_io_parallelism>(nullptr, "store_io_parallelism"),
    Field<&BO::skew>("--skew", "skew", "Zipf theta (>= 0; 0 = stock)", 0),
    Field<&BO::salt_fanout>("--salt-fanout", "salt_fanout",
                            "salted sub-partitions per hot key (>= 2)", 2),
    Field<&BO::hot_key_threshold>("--hot-key-threshold", "hot_key_threshold",
                                  "hot-key share in (0, 1]", kAboveZero, 1),
    Field<&CC::fault_seed>("--fault-seed", "fault_seed",
                           "deterministic fault-injection seed"),
    Field<&CC::task_failure_rate>("--fault-task-failure-rate",
                                  "task_failure_rate", "share of tasks re-run"),
    Field<&CC::straggler_rate>("--fault-straggler-rate", "straggler_rate",
                               "share of tasks inflated as stragglers"),
    Field<&CC::straggler_slowdown>("--fault-straggler-slowdown",
                                   "straggler_slowdown", "straggler inflation"),
    Field<&CC::random_down_hosts>("--fault-down-hosts", "random_down_hosts",
                                  "N seeded random whole-run host outages"),
    Field<&CC::host_downtimes>("--fault-down-host", "down_hosts",
                               "host K down for the whole run (repeatable)"),
    Field<&CC::degraded_hosts>("--fault-degraded-host", "degraded_hosts",
                               "host K degraded (repeatable)"),
    Field<&CC::degraded_service_factor>(
        "--fault-degraded-factor", "degraded_factor", "degraded-host stretch"),
    Field<&CC::speculative_execution>("--fault-speculation", "speculation",
                                      "enable speculative backup tasks"),
    Field<&CC::speculation_threshold, &CC::speculative_execution>(
        "--fault-speculation-threshold", "speculation_threshold",
        "backup trigger vs wave median (implies --fault-speculation)"),
    Field<&CC::lookup_retry_backoff_sec>(
        "--fault-backoff", "lookup_backoff_sec", "retry backoff seconds"),
    Field<&CC::lookup_max_attempts>(
        "--fault-max-attempts", "lookup_max_attempts", "tries before failover"),
    Field<&CC::failover_replicas>(
        "--fault-failover-replicas", "failover_replicas", "replicas tried"),
    Field<&CC::lookup_latency_spike_rate>(
        "--fault-latency-rate", "latency_spike_rate", "spiked lookup share"),
    Field<&CC::lookup_latency_spike_factor>(
        "--fault-latency-factor", "latency_spike_factor", "max spike stretch"),
    Field<&CC::lookup_flaky_rate>("--fault-flaky-rate", "flaky_rate",
                                  "per-attempt transient lookup error rate"),
    Field<&CC::lookup_corrupt_rate>(
        "--fault-corrupt-rate", "lookup_corrupt_rate", "corrupt lookup share"),
    Field<&CC::artifact_corrupt_rate>("--fault-corrupt-artifact-rate",
                                      "artifact_corrupt_rate",
                                      "artifact-chunk corruption rate"),
    Field<&CC::integrity_max_refetches>("--fault-integrity-refetches",
                                        "integrity_max_refetches",
                                        "re-fetches before the slow path"),
    Field<&CC::hedged_lookups>("--hedge", "hedged_lookups",
                               "enable hedged (backup) lookups"),
    Field<&CC::hedge_quantile, &CC::hedged_lookups>(
        "--hedge-quantile", "hedge_quantile",
        "quantile deriving the hedge delay (implies --hedge)"),
    Field<&CC::breaker_failure_threshold>(
        "--breaker-threshold", "breaker_threshold", "failures to trip (0=off)"),
    Field<&CC::breaker_open_lookups>("--breaker-open-lookups",
                                     "breaker_open_lookups",
                                     "lookups a breaker stays open for"),
    Field<&BO::trace_out>("--trace-out", nullptr,
                          "write the Chrome trace-event JSON"),
    Field<&BO::report_out>("--report", nullptr, "write the JSON run report"),
};

/// Parses and strips every `kKnobs` flag, leaving unknown arguments in order
/// for benchmark's parser; validates the config.
inline BenchOptions ParseBenchOptions(int* argc, char** argv) {
  BenchOptions opts;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    const Knob* knob = std::ranges::find_if(kKnobs, [&](const Knob& k) {
      if (k.flag == nullptr || !arg.starts_with(k.flag)) return false;
      const std::string_view rest = arg.substr(std::string_view(k.flag).size());
      return k.is_switch ? rest.empty() : rest.starts_with('=');
    });
    if (knob == std::end(kKnobs)) {
      argv[out++] = argv[i];
      continue;
    }
    const size_t eq = arg.find('=');  // npos for a switch: no value.
    if (!knob->set(*knob, opts, eq == arg.npos ? "" : arg.substr(eq + 1))) {
      std::fprintf(stderr, "invalid %s (%s)\n", argv[i], knob->doc);
      std::exit(2);
    }
  }
  *argc = out;
  opts.threads = ResolveThreadCount(0);
  const char* why = "unknown";
  if (!ValidateClusterConfig(opts.config, &why)) {
    std::fprintf(stderr, "invalid cluster configuration: %s\n", why);
    std::exit(2);
  }
  if (!(opts.trace_out + opts.report_out).empty()) {
    opts.session = std::make_unique<obs::ObsSession>();
  }
  return opts;
}

/// The effective configuration as (key, value) pairs, echoed by
/// `PrintJsonReport` and into the run reports.
inline std::vector<std::pair<std::string, std::string>> ConfigPairs(
    const BenchOptions& opts) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Knob& k : kKnobs) {
    if (k.key != nullptr) out.emplace_back(k.key, k.echo(opts));
  }
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
  if (!opts.report_out.empty()) {
    obs::RunReportInput in;
    in.name = harness.figure();
    for (const auto& m : harness.measurements()) {
      in.sim_seconds += m.sim_seconds;
    }
    in.metrics = &opts.obs()->metrics();
    in.trace = &opts.obs()->trace();
    in.config = ConfigPairs(opts);
    write(opts.report_out, obs::RunReportJson(in));
  }
  return ok;
}

/// Standard main body: print the table and JSON report (with config echo),
/// write any requested observability outputs, then hand over to benchmark.
inline int FinishBench(FigureHarness& harness, const BenchOptions& opts,
                       int argc, char** argv) {
  harness.PrintTable();
  harness.PrintJsonReport(&opts);
  const bool obs_ok = WriteObsOutputs(harness, opts);
  harness.RegisterBenchmarks();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return obs_ok ? 0 : 1;
}

}  // namespace bench
}  // namespace efind

#endif  // EFIND_BENCH_BENCH_UTIL_H_
