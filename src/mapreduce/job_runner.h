// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_JOB_RUNNER_H_
#define EFIND_MAPREDUCE_JOB_RUNNER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "mapreduce/job.h"
#include "mapreduce/record.h"

namespace efind {

namespace obs {
class ObsSession;
}  // namespace obs

/// Executes MapReduce jobs over the simulated cluster.
///
/// Data flow is executed for real (records are actually transformed), while
/// elapsed time is modeled per task from byte counts, CPU charges, and any
/// time stages charged through `TaskContext::AddSimTime` (index lookups).
///
/// Independent tasks execute concurrently on a fixed-size thread pool, and
/// all cross-task merges happen in task-index order after the phase — so
/// outputs, counters, and simulated times are bit-identical for every thread
/// count (DESIGN.md "Execution engine"). A phase whose stages hold per-node
/// state (`RecordStage::holds_node_state`: lookup caches, live breakers)
/// runs on per-node strands, one simulated node's tasks serially in
/// ascending task index on one thread; any other phase runs task by task.
/// The wave scheduler then converts per-task durations into a phase
/// makespan over the cluster's slots.
///
/// The phase methods run a job phase by phase, or a phase in ranges of
/// tasks: EFind's pipeline executor drives every job through them, and
/// its adaptive main job pauses after the first map wave and the first
/// reduce wave to re-optimize, resuming with a different plan while
/// reusing completed tasks (paper Figures 9-10).
class JobRunner {
 public:
  explicit JobRunner(const ClusterConfig& config);

  /// Sets the worker-thread count for task execution. 0 (the default)
  /// resolves via `ResolveThreadCount` (EFIND_THREADS env var, else
  /// hardware concurrency) at first use; 1 runs tasks inline. Results are
  /// bit-identical for any value.
  void set_num_threads(int n) { num_threads_ = n; }
  /// The resolved worker-thread count this runner executes with.
  int effective_threads() const { return ResolveThreadCount(num_threads_); }

  /// Attaches an observability session (null detaches). While attached,
  /// every phase emits a phase span, per-task spans on the task's node
  /// track, speculation/fault instants, and slot-occupancy metrics onto the
  /// session, laid out on its simulated clock; per-task stage events staged
  /// through `TraceRecorder::TaskLocal` are rebased onto the phase schedule
  /// (DESIGN.md §8). No-op for timing/results: attached and detached runs
  /// produce identical outputs, counters, and simulated seconds.
  void set_obs(obs::ObsSession* session) { obs_ = session; }
  obs::ObsSession* obs() const { return obs_; }

  /// Runs the whole job: map phase over `input`, then (if a reducer is
  /// configured) shuffle + reduce phase. The entry point for plain
  /// MapReduce jobs; EFind's pipeline executor runs its jobs through the
  /// phase methods instead, and both book their waves with
  /// `JobResult::AddMapWave` / `AddReduceWave`.
  JobResult Run(const JobConfig& job, const std::vector<InputSplit>& input);

  /// Executes map tasks for splits [begin, end) of `input` and schedules
  /// them; task index i corresponds to `input[i]`, so a view (say, a
  /// strided schedule) runs without deep-copying records. `owned`, when
  /// non-null, is the vector `input` points into: the tasks move each
  /// record into the stage chain instead of copying it and free their
  /// split's record storage when they finish, leaving emptied splits.
  /// Outputs, counters and simulated times equal a borrowing run's.
  MapPhaseResult RunMapPhase(const JobConfig& job,
                             const std::vector<const InputSplit*>& input,
                             size_t begin, size_t end,
                             std::vector<InputSplit>* owned);

  /// Shuffles the given map outputs and executes reduce tasks [begin, end).
  /// `map_outputs` may combine tasks from different plans (adaptive plan
  /// change reuses completed old-plan map tasks, Fig. 10a), as long as all
  /// were partitioned with the same partitioner and reducer count; a range
  /// short of the whole phase keeps the outputs of already-completed
  /// reduce tasks across a plan change in the middle of the reduce phase
  /// (Fig. 10b).
  ReducePhaseResult RunReduceRange(
      const JobConfig& job,
      const std::vector<const MapTaskResult*>& map_outputs, int begin,
      int end);

  /// Number of reduce tasks the job will use (resolves the <=0 default).
  int ResolveNumReduceTasks(const JobConfig& job) const;

  /// Applies the cluster's fault model to a task's base duration:
  /// deterministic per-(kind, index) failures re-execute the task (2x) and
  /// stragglers run `straggler_slowdown` times slower.
  double ApplyFaults(double duration, int kind, int task_index) const;

  const ClusterConfig& config() const { return config_; }

 private:
  int ReduceTaskNode(const JobConfig& job, int reduce_index) const;

  /// Executes one map task over `split` as task `task_index`, placed on
  /// `split.node` (the job may ask for remote input): the input loop feeds
  /// the map stage chain, one sweep accounts for (and, in a shuffled job,
  /// partitions) its output, and the time and fault models give the
  /// task's durations. Map-only jobs collect the output in
  /// `MapTaskResult::output`, shuffled jobs in per-bucket batches. The
  /// task's deferred state is handed back in `bag` instead of merged (the
  /// engine merges bags in task order). `consumable` is null for a
  /// borrowed split, or `&split` when the task may move the split's
  /// records out (and then frees their storage).
  MapTaskResult RunMapTask(const JobConfig& job, const InputSplit& split,
                           InputSplit* consumable, int task_index,
                           TaskStateBag* bag);

  /// Executes `body(i)` for every i in [0, count). Tasks sharing a strand
  /// key run serially in ascending i on one thread; distinct strands run
  /// concurrently on the pool, in submit (strand key) order, and all of
  /// them serially in ascending i when the pool has one thread. An empty
  /// `strand_of` makes every task its own strand. The phases key strands by
  /// simulated node only when a stage holds per-node state.
  void RunStrands(size_t count, const std::function<int(size_t)>& strand_of,
                  const std::function<void(size_t)>& body);

  ClusterConfig config_;
  int num_threads_ = 0;
  obs::ObsSession* obs_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_JOB_RUNNER_H_
