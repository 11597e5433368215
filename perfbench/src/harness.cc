// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/checksum.h"
#include "mapreduce/job.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/stage.h"
#include "obs/export.h"

namespace perfbench {

namespace fs = std::filesystem;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

Tracer::Tracer() : origin_(NowSeconds()) {}

int Tracer::Begin(std::string name, int op) {
  Span s;
  s.name = std::move(name);
  s.start = NowSeconds() - origin_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op < 0 && s.parent >= 0 ? spans_[s.parent].op : op;
  spans_.push_back(std::move(s));
  child_seconds_.push_back(0.0);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  Span& s = spans_[id];
  s.end = NowSeconds() - origin_;
  open_.pop_back();
  if (s.parent >= 0) child_seconds_[s.parent] += s.end - s.start;
}

double Tracer::SelfSeconds(int id) const {
  const Span& s = spans_[id];
  return (s.end - s.start) - child_seconds_[id];
}

std::vector<double> Tracer::SelfSecondsOf(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(SelfSeconds(static_cast<int>(i)));
  }
  return out;
}

std::string Tracer::ChromeTraceJson() const {
  std::string json = "{\"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"op\": %d, \"parent\": %d, "
                  "\"self_us\": %.3f}}%s\n",
                  efind::obs::JsonEscape(s.name).c_str(), s.op + 1,
                  s.start * 1e6, (s.end - s.start) * 1e6, s.op, s.parent,
                  SelfSeconds(static_cast<int>(i)) * 1e6,
                  i + 1 < spans_.size() ? "," : "");
    json += buf;
  }
  json += "], \"displayTimeUnit\": \"ms\"}\n";
  return json;
}

namespace {

/// The deterministic part of an outcome (what two runs must agree on).
bool SameResult(const OpOutcome& a, const OpOutcome& b) {
  return a.job_sim_s == b.job_sim_s && a.digests == b.digests &&
         a.input_records == b.input_records && a.failures == b.failures &&
         a.counters.values() == b.counters.values() &&
         a.replanned == b.replanned &&
         a.stats_wave_share == b.stats_wave_share &&
         a.queue_wait_s == b.queue_wait_s && a.deferred == b.deferred &&
         a.wal_records == b.wal_records;
}

/// Nearest-rank percentile, p in (0, 1].
double Quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

/// Peak resident set of this process, MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const WorkloadParams& params) {
  if (params.name == "log_adaptive") return MakeLogAdaptive(params);
  if (params.name == "store_join") return MakeStoreJoin(params);
  if (params.name == "tpch_service") return MakeTpchService(params);
  return nullptr;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

int WorkloadThreads(const std::string& name) {
  return name == "store_join" ? 1 : HardwareThreads();
}

uint64_t OutputDigest(const std::vector<efind::InputSplit>& outputs) {
  // Sum of per-record digests: independent of split layout and order.
  uint64_t sum = 0;
  uint64_t count = 0;
  for (const efind::InputSplit& split : outputs) {
    for (const efind::Record& r : split.records) {
      efind::Checksum64 c;
      c.UpdateFramed(r.key);
      c.UpdateFramed(r.value);
      c.UpdateU64(r.extra_bytes);
      sum += c.Digest();
      ++count;
    }
  }
  efind::Checksum64 c;
  c.UpdateU64(sum);
  c.UpdateU64(count);
  return c.Digest();
}

uint64_t MixSeed(uint64_t seed, uint64_t i) {
  // splitmix64 finalizer over (seed, i).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double CounterSum(const efind::Counters& counters, const std::string& prefix,
                  const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : counters.values()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

class IdentityStage : public efind::RecordStage {
 public:
  std::string name() const override { return "identity"; }
  void Process(efind::Record record, efind::TaskContext*,
               efind::Emitter* out) override {
    out->Emit(std::move(record));
  }
};

class IdentityReducer : public efind::Reducer {
 public:
  std::string name() const override { return "identity"; }
  void Reduce(const std::string&, std::vector<efind::Record> values,
              efind::TaskContext*, efind::Emitter* out) override {
    for (auto& r : values) out->Emit(std::move(r));
  }
};

}  // namespace

void MeasureMapReduceLayer(const efind::ClusterConfig& config, int threads,
                           const std::vector<efind::InputSplit>& input,
                           Tracer* tracer, Metrics* out) {
  efind::JobConfig map_only;
  map_only.name = "perfbench.identity_map";
  map_only.map_stages.push_back(std::make_shared<IdentityStage>());
  efind::JobConfig shuffled = map_only;
  shuffled.name = "perfbench.identity_shuffle";
  shuffled.reducer = std::make_shared<IdentityReducer>();

  double records = 0;
  for (const auto& split : input) records += split.records.size();
  efind::JobRunner runner(config);
  runner.set_num_threads(threads);
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      ScopedSpan span(tracer, "mapreduce.JobRunner::Run(map_only)");
      runner.Run(map_only, input);
    }
    {
      ScopedSpan span(tracer, "mapreduce.JobRunner::Run(shuffle)");
      runner.Run(shuffled, input);
    }
  }
  const double map_s =
      Median(tracer->SelfSecondsOf("mapreduce.JobRunner::Run(map_only)"));
  const double shuffle_s =
      Median(tracer->SelfSecondsOf("mapreduce.JobRunner::Run(shuffle)"));
  (*out)["mapreduce.map_ns_per_record"] = map_s * 1e9 / records;
  (*out)["mapreduce.shuffle_ns_per_record"] =
      (shuffle_s - map_s) * 1e9 / records;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by untraced runs (BENCHMARK.json).
const MetricDef kEndToEnd[] = {
    {"op_wall_ms_p50", "ms"}, {"op_cpu_ms_p50", "ms"},
    {"records_per_s", "1/s"}, {"sim_job_s", "s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};

// Per-layer metrics, reported by traced runs. A layer a workload does not
// load reads 0 there (README.md lists which workload loads which layer).
const MetricDef kPerLayer[] = {
    {"workloads.generate_s", "s"},
    {"store.build_s", "s"},
    {"store.get_us_p50", "us"},
    {"store.flush_us_per_lookup", "us"},
    {"store.pages_per_lookup", "count"},
    {"store.coalesced_share", "ratio"},
    {"kvstore.get_us_p50", "us"},
    {"cloud.lookup_us_p50", "us"},
    {"efind.lookups_per_record", "count"},
    {"efind.cache_hit_ratio", "ratio"},
    {"efind.collect_stats_ms", "ms"},
    {"efind.plan_us", "us"},
    {"efind.plans_considered", "count"},
    {"efind.replanned_share", "ratio"},
    {"efind.stats_wave_share", "ratio"},
    {"mapreduce.map_ns_per_record", "ns"},
    {"mapreduce.shuffle_ns_per_record", "ns"},
    {"mapreduce.shuffle_records_per_op", "count"},
    {"mapreduce.records_per_alloc", "count"},
    {"cluster.schedule_us_per_job", "us"},
    {"reuse.hit_ratio", "ratio"},
    {"reuse.publish_ms", "ms"},
    {"reuse.resolve_us", "us"},
    {"service.queue_wait_sim_s_mean", "s"},
    {"service.deferred_share", "ratio"},
    {"durable.fsyncs_per_job", "count"},
    {"durable.commit_bytes_per_job", "bytes"},
    {"wal.records_per_job", "count"},
    {"wal.append_us_p50", "us"},
    {"obs.export_ms", "ms"},
    {"obs.traced_wall_ratio", "ratio"},
    {"proc.minor_faults_per_op", "count"},
    {"proc.cpu_per_wall", "ratio"},
    {"proc.steal_share", "ratio"},
};

struct OpStats {
  double wall_ms_p50 = 0;
  double cpu_ms_p50 = 0;
};

OpStats Summarize(const std::vector<OpOutcome>& ops) {
  std::vector<double> wall, cpu;
  for (const OpOutcome& op : ops) {
    wall.push_back(op.cost.wall_s * 1e3);
    cpu.push_back(op.cost.cpu_s * 1e3);
  }
  return {Median(wall), Median(cpu)};
}

Metrics EndToEnd(const std::vector<OpOutcome>& ops,
                 const std::vector<double>& setup_s) {
  Metrics m;
  const OpStats s = Summarize(ops);
  m["op_wall_ms_p50"] = s.wall_ms_p50;
  m["op_cpu_ms_p50"] = s.cpu_ms_p50;
  double records = 0, wall = 0;
  std::vector<double> op_sim, job_sim;
  for (const OpOutcome& op : ops) {
    records += static_cast<double>(op.input_records);
    wall += op.cost.wall_s;
    double sum = 0;
    for (double x : op.job_sim_s) sum += x;
    op_sim.push_back(op.job_sim_s.empty() ? 0.0 : sum / op.job_sim_s.size());
    job_sim.insert(job_sim.end(), op.job_sim_s.begin(), op.job_sim_s.end());
  }
  m["records_per_s"] = wall > 0 ? records / wall : 0.0;
  // Median over ops of each op's mean job latency. Where an op is one job
  // this is the median job; for the service, whose ops mix three templates
  // of different sizes, the median over all jobs falls between the
  // templates' latency clusters and swings with the seed (README.md).
  m["sim_job_s"] = Median(op_sim);
  // The service tail: only where a run holds many distinct jobs (ops of
  // the other workloads repeat one job per trace, so their p90 is a plan
  // draw, not a tail).
  if (!ops.empty() && ops[0].job_sim_s.size() > 1 && job_sim.size() >= 100) {
    m["sim_job_s_p90"] = Quantile(job_sim, 0.9);
  }
  m["setup_s"] = Median(setup_s);
  m["peak_rss_mb"] = PeakRssMb();
  return m;
}

/// Per-layer metrics every workload derives the same way from its ops'
/// counters and costs.
void CommonLayers(const std::vector<OpOutcome>& ops, Metrics* out) {
  double records = 0, lookups = 0, hits = 0, shuffle = 0, allocs = 0;
  double reuse_hits = 0, reuse_misses = 0, page_reads = 0, coalesced = 0;
  double store_lookups = 0, jobs = 0, deferred = 0, fsyncs = 0, bytes = 0;
  double wal = 0, replanned = 0;
  std::vector<double> waits, wave_share, faults;
  for (const OpOutcome& op : ops) {
    const efind::Counters& c = op.counters;
    records += static_cast<double>(op.input_records);
    lookups += CounterSum(c, "efind.", ".lookups");
    hits += CounterSum(c, "efind.", ".cache_hits");
    shuffle += c.Get("mr.shuffle.records");
    allocs += c.Get("efind.alloc.count");
    reuse_hits += c.Get("efind.reuse.hits");
    reuse_misses += c.Get("efind.reuse.misses");
    page_reads += c.Get("efind.store.page_reads");
    coalesced += c.Get("efind.store.coalesced_page_reads");
    store_lookups += c.Get("efind.store.batched_lookups");
    jobs += static_cast<double>(op.job_sim_s.size());
    deferred += op.deferred;
    fsyncs += op.durable_fsyncs;
    bytes += op.durable_commit_bytes;
    wal += op.wal_records;
    replanned += op.replanned ? 1.0 : 0.0;
    waits.insert(waits.end(), op.queue_wait_s.begin(), op.queue_wait_s.end());
    wave_share.push_back(op.stats_wave_share);
    faults.push_back(op.cost.minor_faults);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double n = static_cast<double>(ops.size());
  (*out)["efind.lookups_per_record"] = ratio(lookups, records);
  (*out)["efind.cache_hit_ratio"] = ratio(hits, hits + lookups);
  (*out)["efind.replanned_share"] = ratio(replanned, n);
  (*out)["efind.stats_wave_share"] = Median(wave_share);
  (*out)["mapreduce.shuffle_records_per_op"] = ratio(shuffle, n);
  (*out)["mapreduce.records_per_alloc"] = ratio(shuffle, allocs);
  (*out)["reuse.hit_ratio"] = ratio(reuse_hits, reuse_hits + reuse_misses);
  (*out)["store.pages_per_lookup"] = ratio(page_reads, store_lookups);
  (*out)["store.coalesced_share"] = ratio(coalesced, page_reads + coalesced);
  double wait_sum = 0;
  for (double w : waits) wait_sum += w;
  (*out)["service.queue_wait_sim_s_mean"] = ratio(wait_sum, waits.size());
  (*out)["service.deferred_share"] = ratio(deferred, jobs);
  (*out)["durable.fsyncs_per_job"] = ratio(fsyncs, jobs);
  (*out)["durable.commit_bytes_per_job"] = ratio(bytes, jobs);
  (*out)["wal.records_per_job"] = ratio(wal, jobs);
  (*out)["proc.minor_faults_per_op"] = Median(faults);
  const OpStats s = Summarize(ops);
  (*out)["proc.cpu_per_wall"] = ratio(s.cpu_ms_p50, s.wall_ms_p50);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int attempted, int failed,
                 const MetricDef* defs, size_t ndefs, const Metrics& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ndefs; ++i) {
    const auto it = m.find(defs[i].name);
    const double v = it != m.end() ? it->second : 0.0;
    std::printf("metric %-34s %16.6f %s\n", defs[i].name, v, defs[i].unit);
    json += std::string(i > 0 ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + JsonNumber(v) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// A private, empty directory under `work_dir`, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& work_dir, const std::string& tag)
      : path_((fs::path(work_dir) /
               (tag + "-" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string Sub(const std::string& name) const {
    const std::string p = (fs::path(path_) / name).string();
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
  }

 private:
  std::string path_;
};

/// CPU time of the whole machine so far, in clock ticks, from the first
/// line of /proc/stat (zeros where it cannot be read). On a virtual machine
/// "steal" is time the hypervisor gave this machine's vCPUs to other
/// guests: host-time metrics slow down with it whatever the program does.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
  static CpuTicks Now() {
    CpuTicks t;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
    if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
            softirq >> steal &&
        cpu == "cpu") {
      t.busy = user + nice + system + irq + softirq;
      t.steal = steal;
    }
    return t;
  }
};

/// Share of the CPU time the machine wanted between `a` and `b` that the
/// hypervisor took.
double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const double steal = b.steal - a.steal;
  const double wanted = steal + (b.busy - a.busy);
  return wanted > 0 ? steal / wanted : 0.0;
}

struct SetupResult {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  bool consistent = true;  ///< Warm-up ops agreed and matched references.
};

/// Sets the workload up `reps` times from scratch (median reported as
/// setup_s) and keeps the last instance. Each repetition's time covers
/// generation, index builds, reference outputs and the warm-up op.
bool SetUp(const WorkloadParams& base, const ScratchDir& scratch, int reps,
           Tracer* tracer, SetupResult* out, std::string* error) {
  OpOutcome first_warmup;
  for (int rep = 0; rep < reps; ++rep) {
    out->workload.reset();
    WorkloadParams params = base;
    params.dir = scratch.Sub("setup" + std::to_string(rep));
    const double t0 = NowSeconds();
    out->workload = MakeWorkload(params);
    OpOutcome warmup;
    {
      ScopedSpan span(tracer, "setup");
      if (!out->workload->Setup(tracer, error)) return false;
      warmup = out->workload->RunOp(0, tracer, nullptr);
    }
    out->setup_s.push_back(NowSeconds() - t0);
    if (warmup.failures > 0) out->consistent = false;
    if (rep == 0) {
      first_warmup = std::move(warmup);
    } else if (!SameResult(warmup, first_warmup)) {
      out->consistent = false;
    }
  }
  return true;
}

std::vector<OpOutcome> RunOps(Workload* w, int first, int count,
                              Tracer* tracer) {
  std::vector<OpOutcome> ops;
  for (int i = first; i < first + count; ++i) {
    ScopedSpan span(tracer, "op", i);
    ops.push_back(w->RunOp(i, tracer, nullptr));
  }
  return ops;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  WorkloadParams params;
  params.name = options.workload;
  params.seed = options.seed;
  params.threads = WorkloadThreads(options.workload);
  if (MakeWorkload(params) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  ScratchDir scratch(options.work_dir, options.workload);
  std::unique_ptr<Tracer> tracer =
      options.trace ? std::make_unique<Tracer>() : nullptr;

  constexpr int kSetupReps = 3;
  SetupResult setup;
  std::string error;
  if (!SetUp(params, scratch, kSetupReps, tracer.get(), &setup, &error)) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
    return 1;
  }
  Workload* w = setup.workload.get();
  const int num_ops = w->OpsFor(options.seconds);

  // Configuration echo: the values this run passed to the program.
  std::printf("config workload=%s\n", options.workload.c_str());
  std::printf("config seed=%llu\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("config engine_threads=%d\n", params.threads);
  std::printf("config nproc=%d\n", HardwareThreads());
  std::printf("config ops=%d (+1 warm-up per setup)\n", num_ops);
  std::printf("config setup_reps=%d\n", kSetupReps);
  std::printf("config trace=%d\n", options.trace ? 1 : 0);
  for (const auto& [key, value] : w->Config()) {
    std::printf("config %s=%s\n", key.c_str(), value.c_str());
  }

  const CpuTicks ticks = CpuTicks::Now();
  const std::vector<OpOutcome> ops = RunOps(w, 1, num_ops, nullptr);
  const double steal_share = StealShare(ticks, CpuTicks::Now());
  int failed = 0;
  for (const OpOutcome& op : ops) failed += op.failures > 0 ? 1 : 0;
  int attempted = num_ops;
  bool correct = setup.consistent;
  std::printf("check setup repetitions identical and warm-up correct: %s\n",
              setup.consistent ? "ok" : "FAILED");

  if (!options.trace) {
    const Metrics m = EndToEnd(ops, setup.setup_s);
    std::printf("metric %-34s %16.6f ratio\n", "error_rate",
                static_cast<double>(failed) / attempted);
    std::printf("metric %-34s %16.6f ratio\n", "proc.steal_share",
                steal_share);
    if (m.count("sim_job_s_p90") > 0) {
      std::printf("metric %-34s %16.6f s\n", "sim_job_s_p90",
                  m.at("sim_job_s_p90"));
    }
    PrintResult(correct && failed == 0, attempted, failed, kEndToEnd,
                std::size(kEndToEnd), m);
    return 0;
  }

  // Traced run: the same ops again under spans; they must reproduce the
  // untraced results exactly.
  const std::vector<OpOutcome> traced =
      RunOps(w, 1, num_ops, tracer.get());
  int traced_mismatch = 0;
  for (int i = 0; i < num_ops; ++i) {
    if (traced[i].failures > 0) ++failed;
    if (!SameResult(traced[i], ops[i])) ++traced_mismatch;
  }
  attempted += num_ops;
  std::printf("check traced ops equal untraced ops: %s (%d mismatches)\n",
              traced_mismatch == 0 ? "ok" : "FAILED", traced_mismatch);

  Metrics m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
  CommonLayers(ops, &m);
  m["workloads.generate_s"] =
      Median(tracer->SelfSecondsOf("workloads.Generate"));
  m["store.build_s"] =
      Median(tracer->SelfSecondsOf("store.PackedStoreBuilder::Build"));
  m["obs.traced_wall_ratio"] =
      Summarize(traced).wall_ms_p50 / Summarize(ops).wall_ms_p50;
  m["proc.steal_share"] = steal_share;

  // One more op with the engine's own observability session attached,
  // then the exporters over what it recorded.
  efind::obs::ObsSession session;
  const OpOutcome observed = w->RunOp(1, tracer.get(), &session);
  ++attempted;
  if (observed.failures > 0) ++failed;
  const bool observed_same = SameResult(observed, ops[0]);
  std::printf("check op with obs attached equals untraced op: %s\n",
              observed_same ? "ok" : "FAILED");
  {
    ScopedSpan span(tracer.get(), "obs.export");
    efind::obs::RunReportInput report;
    report.name = options.workload;
    report.sim_seconds =
        observed.job_sim_s.empty() ? 0.0 : observed.job_sim_s[0];
    report.counters = &observed.counters;
    report.metrics = &session.metrics();
    report.trace = &session.trace();
    const std::string chrome =
        efind::obs::ChromeTraceJson(session.trace(), w->cluster().num_nodes);
    const std::string run_report = efind::obs::RunReportJson(report);
    if (chrome.empty() || run_report.empty()) correct = false;
  }
  m["obs.export_ms"] = Median(tracer->SelfSecondsOf("obs.export")) * 1e3;

  {
    ScopedSpan span(tracer.get(), "layers");
    w->MeasureLayers(ops, tracer.get(), &m);
  }

  const std::string trace_path =
      (fs::path(options.work_dir) / ("trace-" + options.workload + "-" +
                                     std::to_string(options.seed) + ".json"))
          .string();
  std::ofstream trace_file(trace_path);
  trace_file << tracer->ChromeTraceJson();
  trace_file.close();
  std::printf("trace %s (%zu spans)%s\n", trace_path.c_str(),
              tracer->spans().size(), trace_file ? "" : " NOT WRITTEN");

  correct = correct && traced_mismatch == 0 && observed_same && failed == 0;
  PrintResult(correct, attempted, failed, kPerLayer, std::size(kPerLayer), m);
  return 0;
}

int RunSelfTest(const std::string& work_dir) {
  bool all_ok = true;
  auto check = [&](const std::string& what, bool ok) {
    std::printf("self-test %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    std::fflush(stdout);
    all_ok = all_ok && ok;
  };
  constexpr uint64_t kSeed = 1;
  constexpr int kOps = 2;
  for (const std::string name :
       {"log_adaptive", "store_join", "tpch_service"}) {
    ScratchDir scratch(work_dir, "selftest-" + name);
    auto run = [&](int threads, const std::string& tag,
                   bool corrupt) -> std::vector<OpOutcome> {
      WorkloadParams params{name, kSeed, threads, scratch.Sub(tag)};
      std::unique_ptr<Workload> w = MakeWorkload(params);
      std::string error;
      if (!w->Setup(nullptr, &error)) {
        check(name + ": setup (" + error + ")", false);
        return {};
      }
      if (corrupt) w->CorruptReference();
      return RunOps(w.get(), 0, kOps, nullptr);
    };
    const int threads = WorkloadThreads(name);
    const int other = threads == 1 ? HardwareThreads() : 1;
    const auto a = run(threads, "a", false);
    const auto b = run(threads, "b", false);
    const auto c = run(other, "c", false);
    const auto bad = run(threads, "bad", true);
    bool correct = a.size() == kOps;
    for (const auto& op : a) correct = correct && op.failures == 0;
    check(name + ": outputs match the independent reference", correct);
    bool repeat = a.size() == b.size();
    for (size_t i = 0; repeat && i < a.size(); ++i) {
      repeat = SameResult(a[i], b[i]);
    }
    check(name + ": two runs give identical sim_job_s, counts, checksums",
          repeat);
    bool threads_same = a.size() == c.size();
    for (size_t i = 0; threads_same && i < a.size(); ++i) {
      threads_same = SameResult(a[i], c[i]);
    }
    check(name + ": threads=" + std::to_string(threads) + " equals threads=" +
              std::to_string(other),
          threads_same);
    bool caught = bad.size() == kOps;
    for (const auto& op : bad) caught = caught && op.failures > 0;
    check(name + ": a wrong reference is counted as a failure", caught);
  }
  std::printf("self-test %s\n", all_ok ? "PASSED" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace perfbench
