#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace efind {
namespace obs {

int HistogramData::BucketOf(double value_sec) {
  const double ns = value_sec * 1e9;
  if (!(ns > 1.0)) return 0;  // Also catches NaN and non-positives.
  // ilogb is exact on the binary exponent, so bucketing is deterministic
  // across platforms for identical doubles. Clamp before the +1: ilogb
  // returns INT_MAX for infinity, which must saturate, not overflow.
  const int e = std::ilogb(ns);
  return e >= 63 ? 63 : e + 1;
}

double HistogramData::BucketUpperSec(int b) {
  return std::ldexp(1.0, b) * 1e-9;
}

void HistogramData::Observe(double value_sec) {
  ++count;
  sum += value_sec;
  min = std::min(min, value_sec);
  max = std::max(max, value_sec);
  ++buckets[BucketOf(value_sec)];
}

void HistogramData::Merge(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
}

void TaskMetrics::Set(MetricId gauge, double value) {
  if (gauge < 0) return;
  gauge_values_[gauge] = value;
}

void TaskMetrics::Observe(MetricId histogram, double value_sec) {
  if (histogram < 0) return;
  histograms_[histogram].Observe(value_sec);
}

MetricId MetricsRegistry::Intern(const std::string& name, Kind kind) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Entry& e = names_[it->second];
    return e.kind == kind ? e.slot : kInvalidMetric;
  }
  MetricId slot = kInvalidMetric;
  switch (kind) {
    case Kind::kCounter:
      slot = static_cast<MetricId>(counters_.size());
      counters_.push_back(0.0);
      break;
    case Kind::kGauge:
      slot = static_cast<MetricId>(gauges_.size());
      gauges_.push_back(0.0);
      break;
    case Kind::kHistogram:
      slot = static_cast<MetricId>(histograms_.size());
      histograms_.emplace_back();
      break;
  }
  by_name_.emplace(name, names_.size());
  names_.push_back({name, kind, slot});
  return slot;
}

MetricId MetricsRegistry::Counter(const std::string& name) {
  return Intern(name, Kind::kCounter);
}

MetricId MetricsRegistry::Gauge(const std::string& name) {
  return Intern(name, Kind::kGauge);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  return Intern(name, Kind::kHistogram);
}

void MetricsRegistry::Add(MetricId counter, double delta) {
  if (counter >= 0 && counter < static_cast<MetricId>(counters_.size())) {
    counters_[counter] += delta;
  }
}

void MetricsRegistry::Set(MetricId gauge, double value) {
  if (gauge >= 0 && gauge < static_cast<MetricId>(gauges_.size())) {
    gauges_[gauge] = value;
  }
}

void MetricsRegistry::Observe(MetricId histogram, double value_sec) {
  if (histogram >= 0 &&
      histogram < static_cast<MetricId>(histograms_.size())) {
    histograms_[histogram].Observe(value_sec);
  }
}

TaskMetrics* MetricsRegistry::TaskLocal(TaskContext* ctx) {
  return ctx->TaskStateFor<TaskMetrics>(
      this, [this](const TaskMetrics& task) { AbsorbTask(task); });
}

void MetricsRegistry::AbsorbTask(const TaskMetrics& task) {
  for (const auto& [id, value] : task.gauge_values_) Set(id, value);
  for (const auto& [id, h] : task.histograms_) {
    if (id >= 0 && id < static_cast<MetricId>(histograms_.size())) {
      histograms_[id].Merge(h);
    }
  }
}

std::vector<std::pair<std::string, double>> MetricsRegistry::CounterValues()
    const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, i] : by_name_) {
    const Entry& e = names_[i];
    if (e.kind == Kind::kCounter) out.emplace_back(name, counters_[e.slot]);
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeValues()
    const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, i] : by_name_) {
    const Entry& e = names_[i];
    if (e.kind == Kind::kGauge) out.emplace_back(name, gauges_[e.slot]);
  }
  return out;
}

std::vector<std::pair<std::string, HistogramData>>
MetricsRegistry::HistogramValues() const {
  std::vector<std::pair<std::string, HistogramData>> out;
  for (const auto& [name, i] : by_name_) {
    const Entry& e = names_[i];
    if (e.kind == Kind::kHistogram) {
      out.emplace_back(name, histograms_[e.slot]);
    }
  }
  return out;
}

double MetricsRegistry::CounterValue(MetricId id) const {
  return id >= 0 && id < static_cast<MetricId>(counters_.size())
             ? counters_[id]
             : 0.0;
}

double MetricsRegistry::GaugeValue(MetricId id) const {
  return id >= 0 && id < static_cast<MetricId>(gauges_.size()) ? gauges_[id]
                                                               : 0.0;
}

const HistogramData* MetricsRegistry::HistogramValue(MetricId id) const {
  return id >= 0 && id < static_cast<MetricId>(histograms_.size())
             ? &histograms_[id]
             : nullptr;
}

void MetricsRegistry::Clear() {
  by_name_.clear();
  names_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace obs
}  // namespace efind
