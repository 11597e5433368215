// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Metrics registry: named counters, gauges, and log-bucketed histograms
// with interned integer handles (DESIGN.md §8). Handles are interned once
// at wiring time (stage construction, phase setup) so hot-path updates do
// no string work — the same discipline as `CounterHandle` in
// mapreduce/counters.h, but with O(1) integer indexing instead of a map.
//
// Sharding follows the execution engine's determinism recipe: stages feed a
// per-task `TaskMetrics` shard (via `TaskLocal`) with gauges and
// histograms, and the engine's state-bag merges absorb shards into the
// registry serially, in ascending task-index order. Gauge last-writes and
// histogram bucket/sum accumulation therefore happen in exactly the serial
// order, and every snapshot is bit-identical at any worker-thread count.
// Counters are written only by orchestration code, through
// `MetricsRegistry::Add`.

#ifndef EFIND_OBS_METRICS_H_
#define EFIND_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "mapreduce/stage.h"

namespace efind {
namespace obs {

/// Interned handle of one metric. Plain index into the registry's storage
/// for its kind; negative = invalid (updates are dropped).
using MetricId = int;
inline constexpr MetricId kInvalidMetric = -1;

/// Log2-bucketed distribution with nanosecond resolution: bucket b holds
/// values in (2^(b-1), 2^b] nanoseconds (bucket 0: <= 1 ns), saturating at
/// bucket 63 (~292 years). Bucket counts are integers and the sum is
/// accumulated in absorb order, so merges are deterministic.
struct HistogramData {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<uint64_t, 64> buckets{};

  void Observe(double value_sec);
  void Merge(const HistogramData& other);
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  /// Bucket index for `value_sec` (see class comment).
  static int BucketOf(double value_sec);
  /// Upper bound, in seconds, of bucket `b`.
  static double BucketUpperSec(int b);
};

class MetricsRegistry;

/// One task's private metrics shard. Obtained via
/// `MetricsRegistry::TaskLocal(ctx)`; updates touch only this shard, so
/// concurrent tasks never contend. The engine absorbs shards in task-index
/// order.
class TaskMetrics {
 public:
  void Set(MetricId gauge, double value);
  void Observe(MetricId histogram, double value_sec);

 private:
  friend class MetricsRegistry;

  // Sparse (ordered for deterministic absorb iteration).
  std::map<MetricId, double> gauge_values_;
  std::map<MetricId, HistogramData> histograms_;
};

/// The named-metric registry of one run.
///
/// Interning (`Counter`/`Gauge`/`Histogram`) is NOT thread-safe and must
/// happen at wiring time on the orchestration thread; updates through
/// already-interned ids are safe from worker threads only via `TaskLocal`
/// shards. Direct `Add`/`Set`/`Observe` are for orchestration code.
class MetricsRegistry {
 public:
  /// Interns `name` as a counter/gauge/histogram (idempotent: the same name
  /// always returns the same id; kind mismatches return kInvalidMetric).
  MetricId Counter(const std::string& name);
  MetricId Gauge(const std::string& name);
  MetricId Histogram(const std::string& name);

  // Orchestration-thread updates.
  void Add(MetricId counter, double delta);
  void Set(MetricId gauge, double value);
  void Observe(MetricId histogram, double value_sec);

  /// This task's private shard, created and registered in `ctx`'s state bag
  /// on first use (with an AbsorbTask merge closure the engine runs in
  /// task-index order). Safe to call from worker threads.
  TaskMetrics* TaskLocal(TaskContext* ctx);
  void AbsorbTask(const TaskMetrics& task);

  // Snapshots (sorted by name; deterministic).
  std::vector<std::pair<std::string, double>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramData>> HistogramValues() const;

  double CounterValue(MetricId id) const;
  double GaugeValue(MetricId id) const;
  const HistogramData* HistogramValue(MetricId id) const;

  bool empty() const { return names_.empty(); }
  void Clear();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  MetricId Intern(const std::string& name, Kind kind);

  struct Entry {
    std::string name;
    Kind kind;
    MetricId slot;  // Index into the kind's storage vector.
  };

  std::map<std::string, size_t> by_name_;  // name -> index into names_.
  std::vector<Entry> names_;
  std::vector<double> counters_;
  std::vector<double> gauges_;
  std::vector<HistogramData> histograms_;
};

}  // namespace obs
}  // namespace efind

#endif  // EFIND_OBS_METRICS_H_
