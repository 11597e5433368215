// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_JOB_H_
#define EFIND_MAPREDUCE_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/wave_scheduler.h"
#include "mapreduce/counters.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/record.h"
#include "mapreduce/record_batch.h"
#include "mapreduce/stage.h"

namespace efind {

/// Configuration of one MapReduce job: a chain of map-side stages (the
/// user's Map function plus any EFind-inserted pre/lookup/post functions),
/// an optional Reduce function, and a chain of reduce-side stages after it.
struct JobConfig {
  std::string name = "job";

  /// Map computation = chain of record-at-a-time stages.
  std::vector<std::shared_ptr<RecordStage>> map_stages;
  /// Reduce function; null makes this a map-only job (no shuffle).
  std::shared_ptr<Reducer> reducer;
  /// Stages chained after Reduce (EFind tail operators, Fig. 6c).
  std::vector<std::shared_ptr<RecordStage>> reduce_stages;

  /// Number of reduce tasks; <= 0 selects the cluster's total reduce slots.
  int num_reduce_tasks = 0;
  /// Map-output partitioner; null selects HashPartitioner.
  std::shared_ptr<Partitioner> partitioner;
  /// Node hosting each reduce task. Empty = round-robin. The index-locality
  /// strategy sets this so lookups in the post-shuffle stage are node-local.
  std::vector<int> reduce_task_nodes;
  /// When true, map tasks are scheduled without data locality and fetch
  /// their input split over the network instead of from local disk.
  bool map_input_remote = false;
};

/// Execution record of one map task.
struct MapTaskResult {
  /// Map-only jobs: the task's output records in emission order (they
  /// become an output split as-is). Empty for jobs with a reduce phase.
  std::vector<Record> output;
  /// Jobs with a reduce phase: map output partitioned by reduce bucket as
  /// contiguous batches (DESIGN.md §11). Empty for map-only jobs.
  std::vector<RecordBatch> partitioned_batches;
  /// Per-bucket content digest (`ChecksumRecord` framing), computed in the
  /// fused partition sweep; the reduce side re-derives it from the received
  /// bytes and counts `mr.shuffle.checksum_mismatch` on disagreement.
  std::vector<uint64_t> partition_checksums;
  /// Backs the buffers and entry tables of `partitioned_batches`. Owned by
  /// the result so the batches stay readable until the reduce phase drops
  /// the map outputs; freed in bulk with them (DESIGN.md §11).
  std::unique_ptr<Arena> arena;
  /// Simulated duration in seconds (I/O + CPU + stage-charged time),
  /// after the cluster's fault model inflated it.
  double duration = 0.0;
  /// The same duration before fault inflation — what a speculative backup
  /// attempt of this task would take.
  double base_duration = 0.0;
  /// Task-local counters (EFind statistics land here).
  Counters counters;
  int node = 0;
};

/// Execution record of the whole map phase.
struct MapPhaseResult {
  std::vector<MapTaskResult> tasks;
  PhaseSchedule schedule;
  double makespan() const { return schedule.makespan; }

  /// Map-only jobs: appends each task's output to `outputs` as one split
  /// hosted where the task ran, in task order.
  void MoveOutputsTo(std::vector<InputSplit>* outputs) {
    for (MapTaskResult& t : tasks) {
      InputSplit split;
      split.node = t.node;
      split.records = std::move(t.output);
      outputs->push_back(std::move(split));
    }
  }
};

/// Execution record of the reduce phase.
struct ReducePhaseResult {
  /// One output split per reduce task, placed on the task's node; in batch
  /// form when the job's reduce is a pure pass-through (no reduce-side
  /// stages and no reducer or a pass-through one).
  std::vector<InputSplit> outputs;
  std::vector<double> durations;
  /// Fault-free counterparts of `durations` (speculative backup speed).
  std::vector<double> base_durations;
  std::vector<Counters> task_counters;
  PhaseSchedule schedule;
  double makespan() const { return schedule.makespan; }
};

/// Aggregate result of `JobRunner::Run`.
struct JobResult {
  /// Final output splits (per reduce task, or per map task for map-only).
  std::vector<InputSplit> outputs;

  /// Total simulated job time = map makespan + reduce makespan.
  double sim_seconds = 0.0;
  double map_seconds = 0.0;
  double reduce_seconds = 0.0;

  /// Job-wide merged counters.
  Counters counters;
  std::vector<double> map_task_durations;
  /// Fault-free counterparts of `map_task_durations` (what a speculative
  /// backup of each task would take); parallel to it.
  std::vector<double> map_task_base_durations;
  /// Per-reduce-task durations (after fault inflation) and their fault-free
  /// counterparts. Together with the map vectors these are the demand
  /// profile the multi-tenant job service schedules at task granularity
  /// (DESIGN.md §14); empty for map-only jobs.
  std::vector<double> reduce_task_durations;
  std::vector<double> reduce_task_base_durations;

  size_t num_map_tasks = 0;
  size_t num_reduce_tasks = 0;

  /// Flattens the outputs into one vector, materializing batch-form splits
  /// (test convenience).
  std::vector<Record> CollectRecords() const {
    std::vector<Record> all;
    for (const auto& split : outputs) split.AppendRecordsTo(&all);
    return all;
  }
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_JOB_H_
