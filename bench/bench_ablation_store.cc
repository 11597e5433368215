// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Packed-store batch-depth ablation (DESIGN.md §13): the Synthetic join
// served by an on-disk PackedObjectStore instead of the in-memory KV
// store, swept over --store-batch-depth ∈ {1, 4, 16, 64} on the
// fig11a-style lookup leg (cache strategy: per-record inline lookups, the
// paper's lookup-dominated configuration). Depth 1 flushes after every
// lookup — the serial baseline; deeper queues coalesce same-page lookups
// and overlap device waves, so the page-I/O term shrinks while the data
// flow stays byte-for-byte identical.
//
// Gates (nonzero exit on violation):
//   1. Depth >= 16 achieves at least 2x the simulated lookup throughput of
//      depth 1. Lookup
//      counts are equal across depths, so the throughput ratio is the
//      simulated-makespan ratio.
//   2. Outputs are byte-identical across every depth — per-split, in
//      emission order, not just as a multiset. The BatchedLookupQueue's
//      deterministic completion order guarantees this.
//   3. The grouped path (re-partitioning strategy) is byte-identical
//      between depth 1 and depth 16.
//   4. Depth 16 with 4 worker threads matches 1 thread exactly (outputs
//      and simulated seconds) — batching does not break threads=1≡N.
//   5. Depth >= 16 actually coalesces (efind.store.coalesced_page_reads
//      > 0) and issues fewer device pages than depth 1.
//
// Gates use SIMULATED seconds: page I/O is charged by the cost model
// (ClusterConfig::PageBatchSeconds), not by host disk reads, so wall-clock
// on the bench host says nothing about batching efficiency.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "efind/efind_job_runner.h"
#include "store/packed_store.h"
#include "workloads/synthetic.h"

namespace efind {
namespace {

struct Cell {
  double sim_seconds = 0;
  double wall_ms = 0;
  double lookups = 0;
  double cache_hits = 0;
  double page_reads = 0;
  double coalesced = 0;
  double batches = 0;
  std::vector<InputSplit> outputs;
};

/// Byte-identity, not multiset identity: same splits, same nodes, same
/// records in the same emission order.
bool OutputsEqual(const std::vector<InputSplit>& a,
                  const std::vector<InputSplit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node) return false;
    std::vector<Record> ra, rb;
    a[i].AppendRecordsTo(&ra);
    b[i].AppendRecordsTo(&rb);
    if (ra != rb) return false;
  }
  return true;
}

Cell RunCell(const bench::BenchOptions& opts, const IndexJobConf& conf,
             const std::vector<InputSplit>& input, Strategy strategy,
             int depth, int threads, const std::string& label,
             bench::FigureHarness* harness) {
  ClusterConfig config = opts.config;
  config.store_batch_depth = depth;
  EFindOptions eopts = opts.MakeEFindOptions();
  if (threads > 0) eopts.threads = threads;

  EFindJobRunner runner(config, eopts);
  runner.set_obs(opts.obs());
  const JobPlan plan = MakeUniformPlan(conf, strategy);
  const auto start = std::chrono::steady_clock::now();
  EFindRunResult result = runner.RunWithPlan(conf, input, plan, nullptr);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  Cell cell;
  cell.sim_seconds = result.sim_seconds;
  cell.wall_ms = wall_ms;
  cell.lookups = result.counters.Get("efind.store.batched_lookups");
  cell.cache_hits = result.counters.Get("efind.h0.idx0.cache_hits");
  cell.page_reads = result.counters.Get("efind.store.page_reads");
  cell.coalesced = result.counters.Get("efind.store.coalesced_page_reads");
  cell.batches = result.counters.Get("efind.store.batches");
  cell.outputs = std::move(result.outputs);
  harness->Add(label, cell.sim_seconds, result.plan.ToString(), wall_ms,
               ResolveThreadCount(eopts.threads));
  std::printf(
      "{\"bench\": \"ablation_store/%s\", \"sim_seconds\": %.6f, "
      "\"lookups\": %.0f, \"page_reads\": %.0f, \"coalesced\": %.0f, "
      "\"batches\": %.0f}\n",
      label.c_str(), cell.sim_seconds, cell.lookups, cell.page_reads,
      cell.coalesced, cell.batches);
  return cell;
}

}  // namespace
}  // namespace efind

int main(int argc, char** argv) {
  using namespace efind;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("ablation_store");

  // Lookup-dominated scale: Theta = 2 over 10K distinct keys against the
  // 1024-entry cache keeps the miss rate high, so the paged lookup leg is
  // the makespan; small enough for the trajectory budget.
  SyntheticOptions workload;
  workload.num_records = 20000;
  workload.num_distinct_keys = 10000;
  workload.num_splits = 48;
  workload.record_value_bytes = 200;
  const auto input = GenerateSynthetic(workload, opts.config.num_nodes);

  store::PackedStoreOptions sopts;
  const char* tmpdir = std::getenv("TMPDIR");
  sopts.dir = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
              "/efind_bench_ablation_store";
  sopts.page_bytes = opts.store_page_bytes;
  sopts.fill = opts.store_fill;
  sopts.num_nodes = opts.config.num_nodes;
  store::PackedStoreBuilder builder(sopts);
  LoadSyntheticStoreIndex(workload, &builder);
  std::string error;
  const std::unique_ptr<store::PackedObjectStore> store =
      builder.Build(&error);
  if (store == nullptr) {
    std::fprintf(stderr, "store build failed: %s\n", error.c_str());
    return 1;
  }
  const IndexJobConf conf = MakeSyntheticStoreJoinJob(store.get());

  const double min_speedup = 2.0;

  const int kDepths[] = {1, 4, 16, 64};
  std::map<int, Cell> cache_cells;
  for (const int depth : kDepths) {
    cache_cells.emplace(
        depth, RunCell(opts, conf, input, Strategy::kLookupCache, depth,
                       /*threads=*/0, "cache/depth" + std::to_string(depth),
                       &harness));
  }
  const Cell repart1 = RunCell(opts, conf, input, Strategy::kRepartition,
                               /*depth=*/1, /*threads=*/0, "repart/depth1",
                               &harness);
  const Cell repart16 = RunCell(opts, conf, input, Strategy::kRepartition,
                                /*depth=*/16, /*threads=*/0, "repart/depth16",
                                &harness);
  const Cell threads1 = RunCell(opts, conf, input, Strategy::kLookupCache,
                                /*depth=*/16, /*threads=*/1,
                                "cache/depth16/threads1", &harness);
  const Cell threads4 = RunCell(opts, conf, input, Strategy::kLookupCache,
                                /*depth=*/16, /*threads=*/4,
                                "cache/depth16/threads4", &harness);

  bool ok = true;
  auto check = [&](const std::string& what, bool passed) {
    std::printf("{\"bench\": \"ablation_store/check\", \"what\": \"%s\", "
                "\"passed\": %s}\n",
                what.c_str(), passed ? "true" : "false");
    if (!passed) ok = false;
  };

  const Cell& base = cache_cells.at(1);
  for (const int depth : kDepths) {
    const Cell& cell = cache_cells.at(depth);
    // Equal work across depths: every record's key resolves either via a
    // store lookup or a cache hit (a key already in flight rides the
    // pending lookup's ticket and counts as a hit), so the sum is depth-
    // invariant even though deeper batches dedup a few more lookups.
    check("depth" + std::to_string(depth) +
              ": lookups + cache hits match depth1",
          cell.lookups > 0 &&
              cell.lookups + cell.cache_hits ==
                  base.lookups + base.cache_hits);
    check("depth" + std::to_string(depth) + ": output byte-identical to depth1",
          OutputsEqual(cell.outputs, base.outputs));
    if (depth >= 16) {
      const double speedup =
          cell.sim_seconds > 0 ? base.sim_seconds / cell.sim_seconds : 0.0;
      std::printf("{\"bench\": \"ablation_store/depth%d/summary\", "
                  "\"speedup_vs_depth1\": %.3f}\n",
                  depth, speedup);
      check("depth" + std::to_string(depth) + ": >= " +
                std::to_string(min_speedup) + "x lookup throughput of depth1",
            speedup >= min_speedup);
      check("depth" + std::to_string(depth) + ": coalesced same-page reads",
            cell.coalesced > 0);
      check("depth" + std::to_string(depth) + ": fewer device pages than depth1",
            cell.page_reads < base.page_reads);
    }
  }
  check("repart: depth16 output byte-identical to depth1",
        OutputsEqual(repart16.outputs, repart1.outputs));
  check("repart: grouped lookups batched at depth16",
        repart16.batches > 0 && repart16.batches < repart1.batches);
  check("threads: depth16 4 threads == 1 thread (outputs)",
        OutputsEqual(threads4.outputs, threads1.outputs));
  check("threads: depth16 4 threads == 1 thread (sim seconds)",
        threads4.sim_seconds == threads1.sim_seconds);

  const int rc = bench::FinishBench(harness, opts, argc, argv);
  if (!ok) {
    std::fprintf(stderr, "ablation_store batching assertions FAILED\n");
    return 1;
  }
  return rc;
}
