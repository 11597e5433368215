// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Observability session: one TraceRecorder + one MetricsRegistry covering
// one run (or one bench invocation). Engine and stage code holds an
// `ObsSession*` that is null when observability is off; observability is
// runtime-only, and a detached run pays one pointer test per instrumentation
// site (bench_obs_overhead guards that this stays free).

#ifndef EFIND_OBS_OBS_H_
#define EFIND_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace efind {
namespace obs {

/// The trace + metrics pair of one observed run. Create one per run (or per
/// bench process), hand its address to `EFindJobRunner::set_obs` /
/// `JobRunner::set_obs`, and export with obs/export.h when done.
class ObsSession {
 public:
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  void Clear() {
    trace_.Clear();
    metrics_.Clear();
  }

 private:
  TraceRecorder trace_;
  MetricsRegistry metrics_;
};

}  // namespace obs
}  // namespace efind

#endif  // EFIND_OBS_OBS_H_
