// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_CLUSTER_WAVE_SCHEDULER_H_
#define EFIND_CLUSTER_WAVE_SCHEDULER_H_

#include <cstddef>
#include <vector>

namespace efind {

/// Start/finish assignment for one task produced by the scheduler.
struct TaskSchedule {
  double start = 0.0;
  double finish = 0.0;
  int slot = 0;
  /// Speculative backup attempt of this task (speculative ScheduleWaves
  /// overload only). Times are relative to the primary's start; when the
  /// backup wins, `finish - start` already reflects the backup's finish.
  bool backup_launched = false;
  bool backup_won = false;
  /// Backup launch offset (the speculation trigger) and the offset at which
  /// the backup would finish, both relative to the primary's start.
  double backup_rel_start = 0.0;
  double backup_rel_finish = 0.0;
};

/// Result of scheduling a phase of tasks onto a fixed number of slots.
struct PhaseSchedule {
  std::vector<TaskSchedule> tasks;
  /// Completion time of the whole phase (last slot to finish).
  double makespan = 0.0;
  /// Number of tasks in the first wave, i.e. the first `num_slots` tasks
  /// (all tasks if fewer).
  size_t first_wave_size = 0;
  /// Speculative execution (the speculative overload): how many backup
  /// tasks launched, and how many finished before their primary.
  size_t speculative_launched = 0;
  size_t speculative_wins = 0;
};

/// Schedules tasks with the given durations onto `num_slots` identical slots
/// using FIFO list scheduling (each task goes to the earliest-free slot, in
/// submission order), which is how Hadoop assigns tasks from its queue.
/// A non-positive `num_slots` is treated as 1.
PhaseSchedule ScheduleWaves(const std::vector<double>& durations,
                            int num_slots);

/// As above with Hadoop-style speculative execution: a task whose (possibly
/// fault-inflated) duration exceeds `threshold` times the median duration of
/// its wave gets a backup copy launched once that threshold passes; the
/// backup runs for the task's un-faulted `base_durations[i]`, and the first
/// finisher wins. Both inputs are per-task durations collected *before*
/// scheduling, so this is a deterministic post-hoc transform on the time
/// domain only — data flow, counters and outputs are untouched, and results
/// are bit-identical at any worker-thread count (DESIGN.md §7). The backup's
/// slot occupancy is deliberately not modeled (second-order on a cluster
/// with free slots); `threshold` <= 1 disables speculation.
PhaseSchedule ScheduleWaves(const std::vector<double>& durations,
                            const std::vector<double>& base_durations,
                            int num_slots, double threshold);

}  // namespace efind

#endif  // EFIND_CLUSTER_WAVE_SCHEDULER_H_
