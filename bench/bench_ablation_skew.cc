// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Hostile-scenario skew matrix (DESIGN.md §12): the Synthetic join under
// four key distributions — uniform, Zipf θ=0.8, Zipf θ=1.2, and an
// adversarial single-key stream — crossed with the four fixed strategies
// (cache, repart, salted re-partition, idxloc) and the fault matrix
// off/on. Every cell reports the simulated cluster makespan and the host
// wall-clock time as a JSON line; per-scenario winner assertions make the
// bench exit nonzero when skew-aware re-partitioning stops paying off:
//
//   1. zipf1.2 (faults off AND on): salted beats plain re-partitioning by
//      at least 25% of simulated makespan. The single hot key (~18% of
//      all lookup keys) serializes one reduce task under plain
//      re-partitioning; salting spreads it across `--salt-fanout`
//      sub-partitions.
//   2. single-key: the whole shuffle lands on one reduce task; salted must
//      win by at least the same margin.
//   3. uniform and zipf0.8: no key crosses the hot threshold, the salted
//      plan degenerates to plain re-partitioning, and the two cells must
//      agree within 5% (they are expected to be *identical*).
//   4. Outputs: salted vs plain re-partition agree as a sorted multiset in
//      every scenario (split placement legitimately differs).
//
// Winner gates use SIMULATED seconds, not wall-clock: the modeled cluster
// has 12 nodes and 48 reduce slots, where reducer serialization is real;
// the host running this bench may have a single core, where spreading a
// hot key cannot change wall time (DESIGN.md §12 records this choice).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "workloads/synthetic.h"

namespace efind {
namespace {

struct Scenario {
  const char* name;
  double theta;       // Zipf θ; 0 = uniform.
  bool single_key;    // Adversarial all-records-one-key mode.
};

constexpr Scenario kScenarios[] = {
    {"uniform", 0.0, false},
    {"zipf0.8", 0.8, false},
    {"zipf1.2", 1.2, false},
    {"single_key", 0.0, true},
};

struct Cell {
  double sim_seconds = 0;
  double wall_ms = 0;
  std::vector<Record> sorted;  // Canonical output multiset.
  size_t hot_keys = 0;         // From the collected statistics.
};

std::vector<Record> SortedRecords(const EFindRunResult& result) {
  std::vector<Record> all = result.CollectRecords();
  std::sort(all.begin(), all.end());
  return all;
}

/// One (scenario, faults) block: runs the four strategy cells against a
/// shared workload + stats collection and records them in the harness.
struct BlockResult {
  std::map<std::string, Cell> cells;  // keyed by strategy leaf name.
};

BlockResult RunBlock(const bench::BenchOptions& opts, bool faults,
                     const Scenario& scenario,
                     const SyntheticOptions& workload,
                     bench::FigureHarness* harness) {
  ClusterConfig config = opts.config;
  if (faults) {
    // The determinism suite's fault matrix (obs_determinism_test.cc).
    config.task_failure_rate = 0.08;
    config.straggler_rate = 0.1;
    config.straggler_slowdown = 4.0;
    config.speculative_execution = true;
    config.speculation_threshold = 1.5;
    config.host_downtimes.push_back({3});
    config.degraded_hosts.push_back(5);
    config.fault_seed = 7;
  }

  SyntheticOptions syn = workload;
  syn.zipf_theta = scenario.single_key ? 0.0 : scenario.theta;
  syn.single_key = scenario.single_key;
  const auto input = GenerateSynthetic(syn, config.num_nodes);
  KvStoreOptions kv;
  kv.num_nodes = config.num_nodes;
  KvStore store(kv);
  LoadSyntheticIndex(syn, &store);
  const IndexJobConf conf = MakeSyntheticJoinJob(&store);

  EFindJobRunner runner(config, opts.MakeEFindOptions());
  runner.set_obs(opts.obs());
  const CollectedStats stats = runner.CollectStatistics(conf, input);

  const std::string prefix =
      std::string(scenario.name) + (faults ? "+faults" : "");
  BlockResult block;
  struct StratSpec {
    const char* leaf;
    Strategy strategy;
    bool needs_stats;
  };
  const StratSpec strategies[] = {
      {"cache", Strategy::kLookupCache, false},
      {"repart", Strategy::kRepartition, false},
      {"salted", Strategy::kSaltedRepartition, true},
      {"idxloc", Strategy::kIndexLocality, false},
  };
  for (const auto& s : strategies) {
    const JobPlan plan = MakeUniformPlan(conf, s.strategy);
    const auto start = std::chrono::steady_clock::now();
    const EFindRunResult result =
        runner.RunWithPlan(conf, input, plan, s.needs_stats ? &stats : nullptr);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    Cell cell;
    cell.sim_seconds = result.sim_seconds;
    cell.wall_ms = wall_ms;
    cell.sorted = SortedRecords(result);
    if (!stats.head.empty() && !stats.head[0].index.empty()) {
      cell.hot_keys = stats.head[0].index[0].hot_keys.size();
    }
    harness->Add(prefix + "/" + s.leaf, cell.sim_seconds,
                 result.plan.ToString(), wall_ms);
    block.cells.emplace(s.leaf, std::move(cell));
  }
  return block;
}

}  // namespace
}  // namespace efind

int main(int argc, char** argv) {
  using namespace efind;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("ablation_skew");

  // 1:4 of the stock Synthetic scale: large enough that the hot reduce
  // task dominates the shuffle leg, small enough for the trajectory budget.
  SyntheticOptions workload;
  workload.num_records = 50000;
  workload.num_distinct_keys = 25000;
  workload.num_splits = 96;
  if (opts.skew > 0.0) {
    // --skew overrides nothing in the matrix (every θ runs regardless) but
    // is honored here so ad-hoc invocations can probe other exponents.
    workload.zipf_theta = opts.skew;
  }

  const double min_improvement = 0.25;

  std::map<std::string, BlockResult> blocks;
  for (const bool faults : {false, true}) {
    for (const Scenario& scenario : kScenarios) {
      const std::string key =
          std::string(scenario.name) + (faults ? "+faults" : "");
      blocks.emplace(key, RunBlock(opts, faults, scenario, workload,
                                   &harness));
    }
  }

  bool ok = true;
  auto check = [&](const std::string& what, bool passed) {
    std::printf("{\"bench\": \"ablation_skew/check\", \"what\": \"%s\", "
                "\"passed\": %s}\n",
                what.c_str(), passed ? "true" : "false");
    if (!passed) ok = false;
  };

  for (const auto& [key, block] : blocks) {
    const Cell& repart = block.cells.at("repart");
    const Cell& salted = block.cells.at("salted");
    const bool skewed = key.rfind("zipf1.2", 0) == 0 ||
                        key.rfind("single_key", 0) == 0;
    const double improvement =
        repart.sim_seconds > 0
            ? 1.0 - salted.sim_seconds / repart.sim_seconds
            : 0.0;
    std::printf(
        "{\"bench\": \"ablation_skew/%s/summary\", \"repart_sim\": %.6f, "
        "\"salted_sim\": %.6f, \"improvement\": %.4f, \"hot_keys\": %zu}\n",
        key.c_str(), repart.sim_seconds, salted.sim_seconds, improvement,
        salted.hot_keys);
    if (skewed) {
      check(key + ": salted >= " + std::to_string(min_improvement) +
                " faster than repart (sim)",
            improvement >= min_improvement);
      check(key + ": skew detector flagged hot keys", salted.hot_keys > 0);
    } else {
      // No hot keys -> the salted plan degenerates to plain repart; the
      // 5% band is slack for a gate that should see exact equality.
      check(key + ": salted within 5% of repart (expected identical)",
            std::fabs(improvement) <= 0.05);
      check(key + ": no hot keys flagged", salted.hot_keys == 0);
    }
    check(key + ": salted output multiset == repart output multiset",
          salted.sorted == repart.sorted);
  }

  const int rc = bench::FinishBench(harness, opts, argc, argv);
  if (!ok) {
    std::fprintf(stderr, "ablation_skew winner assertions FAILED\n");
    return 1;
  }
  return rc;
}
