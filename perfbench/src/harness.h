// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The repository benchmark's harness (README.md in this directory): the
// workload interface, the spans the traced run records around public
// calls, and the run loop that turns a seeded, fixed-length op sequence
// into the end-to-end and per-layer metrics. Only public EFind APIs are used.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "mapreduce/counters.h"
#include "mapreduce/record.h"
#include "obs/obs.h"

namespace perfbench {

/// Seconds on the host's monotonic clock.
double NowSeconds();

/// Host cost of one timed public call: wall time, process CPU time
/// (user + sys) and minor page faults.
struct CallCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double minor_faults = 0.0;
};

/// Snapshot of the process's CPU time and minor faults (getrusage).
struct Usage {
  double cpu_s = 0.0;
  double minor_faults = 0.0;
  static Usage Now();
};

/// Runs `fn` and returns its host cost.
template <typename Fn>
CallCost Measure(Fn&& fn) {
  const Usage u0 = Usage::Now();
  const double t0 = NowSeconds();
  fn();
  const double t1 = NowSeconds();
  const Usage u1 = Usage::Now();
  return {t1 - t0, u1.cpu_s - u0.cpu_s, u1.minor_faults - u0.minor_faults};
}

/// One span the benchmark recorded around a call into a layer.
struct Span {
  std::string name;
  double start = 0.0;  ///< Seconds since the tracer was created.
  double end = 0.0;
  int parent = -1;     ///< Index of the enclosing span, -1 at top level.
  int op = -1;         ///< Op id, -1 outside ops.
};

/// In-memory span recorder. Spans nest by call order on one thread; they
/// are only read once the run ends.
class Tracer {
 public:
  Tracer();
  int Begin(std::string name, int op);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// A span's duration minus the part of it its direct children cover.
  double SelfSeconds(int id) const;
  /// Self seconds of every span called `name`, in recording order.
  std::vector<double> SelfSecondsOf(const std::string& name) const;
  /// Chrome trace-event JSON ("X" events, one track per op).
  std::string ChromeTraceJson() const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<double> child_seconds_;  ///< Per span: children's duration.
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int op = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// What one op produced. Every field except `cost` must repeat exactly
/// for a given (workload, seed, op id).
struct OpOutcome {
  CallCost cost;
  /// Simulated seconds of each job the op ran (service latency, including
  /// queue wait, for the job service).
  std::vector<double> job_sim_s;
  /// Order-independent digest of each job's output.
  std::vector<uint64_t> digests;
  /// Input records the op's jobs consumed.
  uint64_t input_records = 0;
  /// Jobs whose output differed from the reference, whose call returned
  /// an error, or which the service rejected.
  int failures = 0;
  efind::Counters counters;
  /// Adaptive runs: whether Algorithm 1 changed the plan, and the
  /// statistics wave's share of simulated time.
  bool replanned = false;
  double stats_wave_share = 0.0;
  /// Job service: per-job queue wait on the service clock, deferrals,
  /// durable-commit deltas and admission-journal frames.
  std::vector<double> queue_wait_s;
  double deferred = 0.0;
  double durable_fsyncs = 0.0;
  double durable_commit_bytes = 0.0;
  double wal_records = 0.0;
};

using Metrics = std::map<std::string, double>;
using ConfigEcho = std::vector<std::pair<std::string, std::string>>;

/// One benchmark workload. A fresh object is set up for every setup
/// repetition, so objects never share scratch files or caches.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The configuration the workload passes to the program.
  virtual ConfigEcho Config() const = 0;
  /// Number of timed ops for a run of `seconds`: a fixed per-workload
  /// rate, never a measured duration.
  virtual int OpsFor(int seconds) const = 0;
  /// Generates the inputs, builds indexes and computes the reference
  /// outputs. False (with `*error`) when a call fails.
  virtual bool Setup(Tracer* tracer, std::string* error) = 0;
  /// Runs op `op` (0 is the warm-up op). `obs`, when non-null, is
  /// attached to the engine for the op.
  virtual OpOutcome RunOp(int op, Tracer* tracer,
                          efind::obs::ObsSession* obs) = 0;
  /// Traced run only: replays each loaded layer's public calls under spans
  /// and fills that layer's per-layer metrics.
  virtual void MeasureLayers(const std::vector<OpOutcome>& ops,
                             Tracer* tracer, Metrics* out) = 0;
  /// Self-test hook: makes every reference output wrong.
  virtual void CorruptReference() = 0;
  /// Simulated cluster the workload runs on.
  virtual const efind::ClusterConfig& cluster() const = 0;
};

struct WorkloadParams {
  std::string name;
  uint64_t seed = 0;
  int threads = 1;
  std::string dir;  ///< Private, empty scratch directory.
};

std::unique_ptr<Workload> MakeLogAdaptive(const WorkloadParams& params);
std::unique_ptr<Workload> MakeStoreJoin(const WorkloadParams& params);
std::unique_ptr<Workload> MakeTpchService(const WorkloadParams& params);
/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const WorkloadParams& params);
/// The engine thread count a workload runs at: 1 for store_join, the
/// machine's hardware concurrency for the others.
int WorkloadThreads(const std::string& name);
int HardwareThreads();

/// Order-independent digest of a job's output records: a record multiset
/// digest, so a plan that lays its output out differently still matches.
uint64_t OutputDigest(const std::vector<efind::InputSplit>& outputs);
/// Derives op `i`'s seed from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t i);
/// Sum of the counters named `<prefix>...<suffix>`.
double CounterSum(const efind::Counters& counters, const std::string& prefix,
                  const std::string& suffix);
double Median(std::vector<double> xs);

/// Per-layer replay shared by every workload: `JobRunner::Run` over
/// `input` with a map-only identity job and with a hash-partitioned
/// identity reduce, at `threads`.
void MeasureMapReduceLayer(const efind::ClusterConfig& config, int threads,
                           const std::vector<efind::InputSplit>& input,
                           Tracer* tracer, Metrics* out);

/// Times `calls` invocations of `fn(i)` in chunks of `chunk` calls, one
/// span per chunk (`tracer` must not be null), and returns the median
/// per-call microseconds.
template <typename Fn>
double ChunkedMedianUs(Tracer* tracer, const std::string& name, size_t calls,
                       size_t chunk, Fn&& fn) {
  std::vector<int> ids;
  for (size_t begin = 0; begin < calls; begin += chunk) {
    const size_t end = begin + chunk < calls ? begin + chunk : calls;
    const int id = tracer->Begin(name, -1);
    for (size_t i = begin; i < end; ++i) fn(i);
    tracer->End(id);
    ids.push_back(id);
  }
  std::vector<double> per_call;
  for (size_t k = 0; k < ids.size(); ++k) {
    const size_t n = k + 1 < ids.size() ? chunk : calls - k * chunk;
    per_call.push_back(tracer->SelfSeconds(ids[k]) * 1e6 /
                       static_cast<double>(n));
  }
  return Median(per_call);
}

/// Options of one benchmark invocation.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch root; the traced run writes its spans (Chrome trace JSON) to
  /// <work_dir>/trace-<workload>-<seed>.json.
  std::string work_dir;
};

/// Runs the benchmark and prints its report; the last stdout line is the
/// JSON result. Returns the process exit code.
int RunBenchmark(const RunOptions& options);

/// Determinism and reference self-test (README.md, "Self-test").
int RunSelfTest(const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
