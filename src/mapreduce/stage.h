// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_STAGE_H_
#define EFIND_MAPREDUCE_STAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/record.h"

namespace efind {

/// One entry of a task's private state: an opaque object registered by a
/// stage (keyed by the stage's address) plus an optional merge closure the
/// engine runs after the task completes.
struct TaskStateEntry {
  const void* owner = nullptr;
  std::shared_ptr<void> state;
  std::function<void()> merge;
};

/// The per-task state a `TaskContext` accumulated during execution. The
/// execution engine moves it out of the context when the task ends and runs
/// the merge closures serially, in ascending task-index order across the
/// phase — that ordering is what makes parallel execution bit-identical to
/// serial execution (see DESIGN.md "Execution engine").
class TaskStateBag {
 public:
  void Add(TaskStateEntry entry) { entries_.push_back(std::move(entry)); }

  void* Find(const void* owner) const {
    for (const auto& e : entries_) {
      if (e.owner == owner) return e.state.get();
    }
    return nullptr;
  }

  /// Runs and clears the merge closures. Idempotent once drained.
  void Merge() {
    for (auto& e : entries_) {
      if (e.merge) e.merge();
    }
    entries_.clear();
  }

  bool empty() const { return entries_.empty(); }

 private:
  std::vector<TaskStateEntry> entries_;
};

/// Per-task execution context handed to stages and reducers.
///
/// Tasks of a phase may run concurrently, in any order. Stages are
/// therefore shared across threads and must keep per-task state in this
/// context (`FindTaskState` / `AddTaskState`), not in stage members. Only
/// when a phase has a stage that declares `RecordStage::holds_node_state`
/// are one simulated node's tasks serialized, in ascending task index, on
/// one OS thread ("strand"); that stage's per-*node* state (e.g. a node's
/// lookup cache) is then safe without locks.
class TaskContext {
 public:
  TaskContext(int node_id, int task_index, Counters* counters)
      : node_id_(node_id), task_index_(task_index), counters_(counters) {}

  /// Contexts not drained by the engine (standalone stage drivers, unit
  /// tests) absorb their pending merges on destruction, preserving the
  /// immediate-update semantics of serial execution.
  ~TaskContext() { state_.Merge(); }

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  /// Cluster node this task is (simulated to be) running on.
  int node_id() const { return node_id_; }
  /// Index of this task within its phase.
  int task_index() const { return task_index_; }
  /// Task-local counters, merged into the job's counters when the task ends.
  Counters* counters() { return counters_; }

  /// Charges `seconds` of modeled time to this task, e.g. an index lookup's
  /// `(Sik + Siv)/BW + T_j`. The job runner adds this on top of the base
  /// I/O + CPU model when computing the task's simulated duration.
  void AddSimTime(double seconds) { sim_time_ += seconds; }
  double sim_time() const { return sim_time_; }

  /// Returns the task-local state registered under `owner`, or null.
  void* FindTaskState(const void* owner) const { return state_.Find(owner); }

  /// Registers task-local `state` under `owner` (typically the registering
  /// stage's address). `merge`, when non-null, is deferred: the engine runs
  /// it after the task completes, serially and in task-index order across
  /// the phase, so it may fold per-task accumulators into shared structures
  /// without locking.
  void AddTaskState(const void* owner, std::shared_ptr<void> state,
                    std::function<void()> merge = nullptr) {
    state_.Add({owner, std::move(state), std::move(merge)});
  }

  /// The task-local `T` registered under `owner`, constructed from `args`
  /// and registered on first use. `merge` (or nullptr for none) becomes its
  /// deferred merge closure, called with the state; see `AddTaskState`.
  template <typename T, typename Merge, typename... Args>
  T* TaskStateFor(const void* owner, Merge merge, Args&&... args) {
    if (void* existing = FindTaskState(owner)) return static_cast<T*>(existing);
    auto state = std::make_shared<T>(std::forward<Args>(args)...);
    T* raw = state.get();
    if constexpr (std::is_null_pointer_v<Merge>) {
      AddTaskState(owner, std::move(state));
    } else {
      AddTaskState(owner, std::move(state), [merge, raw] { merge(*raw); });
    }
    return raw;
  }

  /// Moves out the accumulated task state (engine use; afterwards the
  /// destructor has nothing left to merge).
  TaskStateBag TakeTaskState() { return std::move(state_); }

  /// Runs pending merges now (standalone drivers that inspect shared state
  /// mid-context-lifetime, e.g. unit tests).
  void FinalizeTaskState() { state_.Merge(); }

 private:
  int node_id_;
  int task_index_;
  Counters* counters_;
  double sim_time_ = 0.0;
  TaskStateBag state_;
};

/// Sink for records produced by a stage or reducer.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(Record record) = 0;
};

/// One link in a chain of record-at-a-time functions.
///
/// Hadoop's ChainMapper/ChainReducer is how the paper's baseline strategy
/// splices `preProcess -> lookup -> postProcess` around the user's Map and
/// Reduce functions (Fig. 6); this interface is the equivalent here. The
/// user's Map function itself is just another stage.
///
/// One stage instance serves every task of a phase, and the phase's tasks
/// run concurrently on different threads: implementations must keep
/// per-task state in the `TaskContext` (see above) and may keep only
/// immutable state in members, or per-node state they declare through
/// `holds_node_state`.
class RecordStage {
 public:
  virtual ~RecordStage() = default;

  /// Human-readable stage name for plan dumps.
  virtual std::string name() const = 0;

  /// True when this stage keeps state that one simulated node's tasks share
  /// and that must see them in serial task order: EFind's per-node lookup
  /// caches and live circuit breakers. The engine then runs the phase's
  /// tasks on per-node strands (each node's tasks serially, in ascending
  /// task index); otherwise every task is its own strand and the pool
  /// balances them. Must not change while a phase runs.
  virtual bool holds_node_state() const { return false; }

  /// Called once before a task streams records through this stage.
  virtual void BeginTask(TaskContext* ctx) { (void)ctx; }
  /// Processes one record, emitting zero or more records downstream.
  virtual void Process(Record record, TaskContext* ctx, Emitter* out) = 0;
  /// Called once after the task's records have been processed; may flush.
  virtual void EndTask(TaskContext* ctx, Emitter* out) {
    (void)ctx;
    (void)out;
  }
};

/// The user's Reduce function: receives one key and all records grouped
/// under it (values arrive in deterministic map-task order). The same
/// threading contract as `RecordStage` applies, except that a reducer may
/// hold no per-node state: the reduce phase's strands are chosen by its
/// reduce-side stages alone.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual std::string name() const = 0;
  virtual void BeginTask(TaskContext* ctx) { (void)ctx; }
  virtual void Reduce(const std::string& key, std::vector<Record> values,
                      TaskContext* ctx, Emitter* out) = 0;
  virtual void EndTask(TaskContext* ctx, Emitter* out) {
    (void)ctx;
    (void)out;
  }
  /// True when `Reduce` emits exactly its values, unchanged and in order,
  /// and nothing else. The engine then streams each group's records
  /// straight into the reduce-side stages instead of calling `Reduce`
  /// (no per-group value vector or key string); `BeginTask` and `EndTask`
  /// still run.
  virtual bool pass_through() const { return false; }
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_STAGE_H_
