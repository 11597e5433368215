// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Exporters for the observability subsystem (DESIGN.md §8):
//
//  - Chrome trace-event JSON: loadable in chrome://tracing or Perfetto.
//    One track (pid) per simulated node plus a "cluster" track for
//    orchestration events; timestamps in simulated microseconds. The
//    format is validated by scripts/trace_lint.py (ctest -L obs).
//  - Per-job run report: one JSON document — run identity, simulated
//    time, plan, config echo, counters, metric snapshots, trace summary.
//    Reuse-store traffic is the `efind.reuse.*` entries of the metric
//    counters; the report keeps no second copy of it.
//
// Export is pure serialization of deterministic state: identical sessions
// produce byte-identical output.

#ifndef EFIND_OBS_EXPORT_H_
#define EFIND_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "obs/obs.h"

namespace efind {
namespace obs {

/// Escapes `s` as the inside of a JSON string literal.
std::string JsonEscape(const std::string& s);

/// Renders the session's trace as Chrome trace-event JSON. `num_nodes`
/// names the per-node tracks; the cluster track gets pid = num_nodes.
std::string ChromeTraceJson(const TraceRecorder& trace, int num_nodes);

/// Everything a run report covers. All fields optional except `name`.
struct RunReportInput {
  std::string name;
  double sim_seconds = 0.0;
  std::string plan;
  bool replanned = false;
  /// MapReduce counters of the run (null to omit).
  const Counters* counters = nullptr;
  /// Metric snapshots (null to omit).
  const MetricsRegistry* metrics = nullptr;
  /// Trace summary — event counts only, not the events (null to omit).
  const TraceRecorder* trace = nullptr;
  /// Free-form configuration echo ("key", "value"), emitted as a JSON
  /// object.
  std::vector<std::pair<std::string, std::string>> config;
};

/// The run report as a JSON document.
std::string RunReportJson(const RunReportInput& in);

/// Writes `content` to `path`. Returns false (filling `*error` when
/// non-null) on I/O failure.
bool WriteFile(const std::string& path, const std::string& content,
               std::string* error = nullptr);

}  // namespace obs
}  // namespace efind

#endif  // EFIND_OBS_EXPORT_H_
