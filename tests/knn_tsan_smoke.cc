// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the spatial kNN index under concurrent map
// tasks: `RTreeKnnAccessor::Lookup` runs `CellPartitionedRTree::KNearest`
// from every task of a node-stateless phase at once, so the index must not
// write anything while it answers. Compiled standalone with
// -fsanitize=thread together with the engine, R*-tree and accessor sources
// by tests/CMakeLists.txt, so every access on the lookup path is
// instrumented. Runs a multi-node map-only job at 1 and 4 worker threads
// and checks the outputs agree; TSan reports fail via the nonzero exit
// code.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "efind/accessors/accessors.h"
#include "mapreduce/job_runner.h"

namespace efind {
namespace {

/// Looks each record's point up in the kNN index and emits the neighbours.
class KnnLookupStage : public RecordStage {
 public:
  explicit KnnLookupStage(IndexAccessor* accessor) : accessor_(accessor) {}

  std::string name() const override { return "knn_lookup"; }

  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    std::vector<IndexValue> neighbours;
    if (!accessor_->Lookup(record.value, &neighbours).ok()) return;
    std::string joined;
    for (const IndexValue& v : neighbours) joined += v.data + ";";
    out->Emit(Record(record.key, joined));
  }

 private:
  IndexAccessor* accessor_;
};

JobResult RunOnce(int threads, const CellPartitionedRTree& index) {
  RTreeKnnAccessor accessor("osm", &index, /*k=*/8);
  ClusterConfig config;
  config.num_nodes = 4;
  JobRunner runner(config);
  runner.set_num_threads(threads);

  JobConfig job;
  job.map_stages.push_back(std::make_shared<KnnLookupStage>(&accessor));

  Rng rng(7);
  std::vector<InputSplit> input(16);
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % config.num_nodes;
    for (int r = 0; r < 40; ++r) {
      input[s].records.push_back(
          Record("q" + std::to_string(s * 40 + r),
                 EncodePoint(rng.NextDouble() * 40, rng.NextDouble() * 80)));
    }
  }
  return runner.Run(job, input);
}

}  // namespace
}  // namespace efind

int main() {
  // A small overlap margin, so a share of the queries widens past its home
  // cell.
  efind::CellRTreeOptions options;
  options.overlap = 0.5;
  efind::CellPartitionedRTree index({0, 0, 40, 80}, options);
  efind::Rng rng(3);
  for (uint64_t i = 0; i < 4000; ++i) {
    index.Insert({rng.NextDouble() * 40, rng.NextDouble() * 80, i});
  }
  const efind::JobResult serial = efind::RunOnce(1, index);
  const efind::JobResult parallel = efind::RunOnce(4, index);
  int failures = 0;
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
  if (failures == 0) {
    std::printf("knn_tsan_smoke: OK\n");
    return 0;
  }
  return 1;
}
