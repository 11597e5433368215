// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the parallel execution engine. This is a
// standalone binary (no gtest) compiled together with the engine sources
// and -fsanitize=thread by tests/CMakeLists.txt, so every engine access is
// instrumented regardless of how the main libraries were built. It drives a
// map+reduce job with per-task state, counters, and stage sim time at 1 and
// 8 worker threads and checks the runs agree bit for bit: once with splits
// on every node, and once with 36 splits on 2 nodes, a node-stateless phase
// with more tasks than nodes that runs task by task on all 8 threads.
// TSan reports (data races) fail the test via its nonzero exit code.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job_runner.h"

namespace efind {
namespace {

// Charges time, counts per-task and per-record, and buffers records in the
// task-state registry — the shapes a race would hide in.
class ChurnStage : public RecordStage {
 public:
  std::string name() const override { return "churn"; }

  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)out;
    ctx->AddSimTime(1e-4);
    ctx->counters()->Increment("churn.records");
    Held(ctx)->push_back(std::move(record));
  }

  void EndTask(TaskContext* ctx, Emitter* out) override {
    std::vector<Record>* held = Held(ctx);
    ctx->counters()->Increment("churn.tasks");
    for (auto& r : *held) out->Emit(std::move(r));
    held->clear();
  }

 private:
  std::vector<Record>* Held(TaskContext* ctx) const {
    auto* existing =
        static_cast<std::vector<Record>*>(ctx->FindTaskState(this));
    if (existing != nullptr) return existing;
    auto held = std::make_shared<std::vector<Record>>();
    auto* raw = held.get();
    ctx->AddTaskState(this, std::move(held));
    return raw;
  }
};

class CountReducer : public Reducer {
 public:
  std::string name() const override { return "count"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    ctx->AddSimTime(1e-5);
    out->Emit(Record(key, std::to_string(values.size())));
  }
};

JobResult RunOnce(int threads, int split_nodes) {
  ClusterConfig config;
  JobRunner runner(config);
  runner.set_num_threads(threads);

  JobConfig job;
  job.map_stages.push_back(std::make_shared<ChurnStage>());
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 24;

  std::vector<InputSplit> input(36);
  int v = 0;
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % split_nodes;
    for (int r = 0; r < 50; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 40), "v" + std::to_string(v)));
      ++v;
    }
  }
  return runner.Run(job, input);
}

}  // namespace
}  // namespace efind

int main() {
  int failures = 0;
  for (int split_nodes : {12, 2}) {
    const efind::JobResult serial = efind::RunOnce(1, split_nodes);
    const efind::JobResult parallel = efind::RunOnce(8, split_nodes);
    if (serial.sim_seconds != parallel.sim_seconds) {
      std::fprintf(stderr, "sim_seconds mismatch: %.17g vs %.17g\n",
                   serial.sim_seconds, parallel.sim_seconds);
      ++failures;
    }
    if (serial.counters.values() != parallel.counters.values()) {
      std::fprintf(stderr, "counters mismatch\n");
      ++failures;
    }
    if (serial.outputs.size() != parallel.outputs.size()) {
      std::fprintf(stderr, "output split count mismatch\n");
      ++failures;
    } else {
      for (size_t i = 0; i < serial.outputs.size(); ++i) {
        if (serial.outputs[i].records != parallel.outputs[i].records) {
          std::fprintf(stderr, "output mismatch in split %zu\n", i);
          ++failures;
        }
      }
    }
  }
  if (failures == 0) {
    std::printf("engine_tsan_smoke: OK\n");
    return 0;
  }
  return 1;
}
