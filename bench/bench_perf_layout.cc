// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Acceptance bench for the batched record hot path (DESIGN.md §11).
//
// The Fig. 11(a) LOG workload under the re-partition strategy spends its
// first leg materializing the event trace re-keyed by the index key (the
// event's IP): a job with no map-side stages whose whole cost is the
// shuffle — exactly the path the arena-backed batch layout targets. This
// bench reproduces that leg: it generates the fig11a log trace, re-keys it
// by IP outside the measured region (the materialization the re-partition
// planner would have written), and runs the resulting shuffle+reduce job
// with no map-side stages (the engine's one map task stages its records,
// then partitions them in the fused sweep), checking that
//   1. at the default cluster configuration, the output digest
//      (`reuse::ChecksumSplits`) and the simulated map/reduce/job seconds
//      equal the pinned values below — pinned while the per-record
//      `std::vector<Record>` shuffle still ran next to the batched one and
//      both agreed bit for bit,
//   2. per-record heap traffic stays collapsed: shuffled records per
//      tracked heap allocation >= 10 (a per-record shuffle allocates at
//      least once per record on this leg, so that is a >= 10x drop), and
//      the arena reports nonzero reserved bytes,
//   3. no shuffle checksum mismatches.
// Exits nonzero if any check fails, so scripts/verify.sh can gate on it.
//
// Wall-clock is the best of N timed runs at the configured cluster after
// one untimed run at the default cluster (the pinned-digest check). The
// checks are exact and noise-free; wall-clock is reported, not gated.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "mapreduce/job_runner.h"
#include "workloads/log_trace.h"

namespace efind {
namespace {

/// Re-keys the raw event trace by IP — the record layout the re-partition
/// strategy materializes before its index-local reduce. Runs outside the
/// measured region. Event values are "ip|url|timestamp"; the re-keyed
/// record is key=ip, value="url|timestamp" with the unparsed event fields
/// still attached as virtual extra bytes.
std::vector<InputSplit> RekeyByIp(const std::vector<InputSplit>& raw) {
  std::vector<InputSplit> out(raw.size());
  for (size_t s = 0; s < raw.size(); ++s) {
    out[s].node = raw[s].node;
    out[s].records.reserve(raw[s].records.size());
    for (const Record& r : raw[s].records) {
      const size_t bar = r.value.find('|');
      if (bar == std::string::npos) continue;
      out[s].records.emplace_back(r.value.substr(0, bar),
                                  r.value.substr(bar + 1), r.extra_bytes);
    }
  }
  return out;
}

/// Reduce for the materialized leg: per-IP visit count plus the first
/// visited URL field, so every gathered value is actually read.
class VisitSummaryReducer : public Reducer {
 public:
  std::string name() const override { return "visit_summary"; }
  void Reduce(const std::string& ip, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    std::string summary = std::to_string(values.size());
    summary += '|';
    summary += values.front().value;
    out->Emit(Record(ip, std::move(summary)));
  }
};

// The pinned default-configuration result (see check 1 above).
constexpr uint64_t kPinnedDigest = 0x265b8313bb90e203ULL;
constexpr double kPinnedSimSeconds = 0x1.81b39a432f214p-3;
constexpr double kPinnedMapSeconds = 0x1.6cc41aeee61f2p-5;
constexpr double kPinnedReduceSeconds = 0x1.2682938775998p-3;

double TimedRun(const ClusterConfig& config, const JobConfig& job,
                const std::vector<InputSplit>& input, JobResult* result_out) {
  JobRunner runner(config);
  const auto start = std::chrono::steady_clock::now();
  JobResult result = runner.Run(job, input);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (result_out != nullptr) *result_out = std::move(result);
  return ms;
}

}  // namespace
}  // namespace efind

int main(int argc, char** argv) {
  using namespace efind;
  bench::BenchOptions opts = bench::ParseBenchOptions(&argc, argv);
  bench::FigureHarness harness("perf_layout");

  // The fig11a log trace at double the default event count, in fewer and
  // fatter splits than the figure run: large enough per task that
  // per-record shuffle costs dominate task-scheduling overhead.
  LogTraceOptions log_options;
  log_options.num_events = 300000;
  log_options.num_splits = 96;
  const auto input =
      RekeyByIp(GenerateLogTrace(log_options, opts.config.num_nodes));

  JobConfig job;
  job.name = "log_repartition_leg";
  job.reducer = std::make_shared<VisitSummaryReducer>();

  JobResult pinned;
  TimedRun(ClusterConfig(), job, input, &pinned);
  const uint64_t digest = reuse::ChecksumSplits(pinned.outputs);
  const bool identical = digest == kPinnedDigest &&
                         pinned.sim_seconds == kPinnedSimSeconds &&
                         pinned.map_seconds == kPinnedMapSeconds &&
                         pinned.reduce_seconds == kPinnedReduceSeconds;

  const int repeats = 5;
  JobResult batched;
  double best_ms = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const double ms = TimedRun(opts.config, job, input, &batched);
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  harness.Add("batched", batched.sim_seconds, "", best_ms);

  const double records = batched.counters.Get("mr.shuffle.records");
  const double allocs = batched.counters.Get("efind.alloc.count");
  const double alloc_bytes = batched.counters.Get("efind.alloc.bytes");
  const double records_per_alloc = allocs > 0 ? records / allocs : 0.0;
  const bool alloc_drop = records_per_alloc >= 10.0 && alloc_bytes > 0;
  const bool no_mismatch =
      batched.counters.Get("mr.shuffle.checksum_mismatch") == 0.0;

  std::printf(
      "{\"bench\": \"perf_layout/layout\", \"batched_ms\": %.3f, "
      "\"shuffle_records\": %.0f, \"heap_allocs\": %.0f, "
      "\"records_per_alloc\": %.1f, \"alloc_bytes\": %.0f, "
      "\"output_digest\": \"%016llx\", \"outputs_identical\": %s}\n",
      best_ms, records, allocs, records_per_alloc, alloc_bytes,
      static_cast<unsigned long long>(digest), identical ? "true" : "false");
  std::printf(
      "{\"bench\": \"perf_layout/acceptance\", \"identical\": %s, "
      "\"alloc_drop_10x\": %s, \"zero_checksum_mismatch\": %s}\n",
      identical ? "true" : "false", alloc_drop ? "true" : "false",
      no_mismatch ? "true" : "false");
  std::fflush(stdout);

  const bool ok = identical && alloc_drop && no_mismatch;
  const int rc = bench::FinishBench(harness, opts, argc, argv);
  if (!ok) {
    std::fprintf(stderr, "perf_layout acceptance FAILED\n");
    return 1;
  }
  return rc;
}
