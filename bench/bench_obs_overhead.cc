// Guards the observability subsystem's engine overhead (DESIGN.md §8).
// Observability is runtime-only: with no session attached every
// instrumentation site costs one pointer test, so a detached run must not
// be measurably slower than an attached one — if it were, the
// "free when off" contract is broken. The bench interleaves detached and
// attached runs of the same adaptive Synthetic join (lookups, caches, a
// possible plan switch: every instrumented path), takes medians, and fails
// unless detached_median <= attached_median * 1.15 (noise allowance; the
// attached run does strictly more work).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/synthetic.h"

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace efind;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("obs_overhead");

  const ClusterConfig& config = opts.config;
  SyntheticOptions options;
  options.num_records = 50000;
  options.num_distinct_keys = 25000;
  options.num_splits = 192;
  auto input = GenerateSynthetic(options, config.num_nodes);
  KvStoreOptions kv;
  kv.num_nodes = config.num_nodes;
  kv.base_service_sec = 800e-6;
  KvStore store(kv);
  LoadSyntheticIndex(options, &store);
  IndexJobConf conf = MakeSyntheticJoinJob(&store);

  obs::ObsSession session;
  double sim_seconds = 0.0;
  auto run_once = [&](obs::ObsSession* s) {
    EFindJobRunner runner(config, opts.MakeEFindOptions());
    runner.set_obs(s);
    const auto start = std::chrono::steady_clock::now();
    sim_seconds = runner.RunDynamic(conf, input).sim_seconds;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  run_once(nullptr);  // Warm up allocators and page cache.
  constexpr int kReps = 9;
  std::vector<double> detached, attached;
  for (int i = 0; i < kReps; ++i) {
    detached.push_back(run_once(nullptr));
    session.Clear();
    attached.push_back(run_once(&session));
  }
  const double detached_ms = Median(detached);
  const double attached_ms = Median(attached);
  harness.Add("detached", sim_seconds, "", detached_ms);
  harness.Add("attached", sim_seconds, "", attached_ms);

  const bool ok = detached_ms <= attached_ms * 1.15;
  std::printf(
      "{\"bench\": \"obs_overhead/verdict\", \"detached_median_ms\": %.3f, "
      "\"attached_median_ms\": %.3f, \"ratio\": %.3f, "
      "\"detached_not_slower\": %s}\n",
      detached_ms, attached_ms, detached_ms / attached_ms,
      ok ? "true" : "false");
  std::fflush(stdout);
  const int rc = bench::FinishBench(harness, opts, argc, argv);
  return ok ? rc : 1;
}
