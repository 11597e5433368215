#include "obs/trace.h"

#include <memory>
#include <utility>

namespace efind {
namespace obs {

void TaskTrace::Push(TraceEvent event) {
  if (events_.size() >= kMaxEventsPerTask) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TaskTrace::Span(std::string name, std::string category,
                     double rel_start_sec, double duration_sec,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.start_sec = rel_start_sec;
  e.duration_sec = duration_sec;
  e.node = node_;
  e.task_index = task_index_;
  e.args = std::move(args);
  Push(std::move(e));
}

void TaskTrace::Instant(std::string name, std::string category,
                        double rel_ts_sec, std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.start_sec = rel_ts_sec;
  e.instant = true;
  e.node = node_;
  e.task_index = task_index_;
  e.args = std::move(args);
  Push(std::move(e));
}

TaskTrace* TraceRecorder::TaskLocal(TaskContext* ctx) {
  return ctx->TaskStateFor<TaskTrace>(
      this, [this](const TaskTrace& task) { AbsorbTask(task); },
      ctx->task_index(), ctx->node_id());
}

void TraceRecorder::AbsorbTask(const TaskTrace& task) {
  StagedTask staged;
  staged.task_index = task.task_index_;
  staged.node = task.node_;
  staged.dropped = task.dropped_;
  staged.events = task.events_;
  staged_.push_back(std::move(staged));
}

void TraceRecorder::Span(std::string name, std::string category,
                         double start_sec, double duration_sec, int node,
                         int lane, std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.start_sec = start_sec;
  e.duration_sec = duration_sec;
  e.node = node;
  e.lane = lane;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::Instant(std::string name, std::string category,
                            double ts_sec, int node,
                            std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.start_sec = ts_sec;
  e.instant = true;
  e.node = node;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

std::vector<TraceRecorder::StagedTask> TraceRecorder::TakeStaged() {
  std::vector<StagedTask> out = std::move(staged_);
  staged_.clear();
  return out;
}

void TraceRecorder::AppendRebased(const StagedTask& task, double offset_sec,
                                  int lane) {
  dropped_ += task.dropped;
  for (const TraceEvent& e : task.events) {
    TraceEvent out = e;
    out.start_sec += offset_sec;
    out.lane = lane;
    events_.push_back(std::move(out));
  }
}

void TraceRecorder::Clear() {
  events_.clear();
  staged_.clear();
  clock_sec_ = 0.0;
  dropped_ = 0;
}

}  // namespace obs
}  // namespace efind
