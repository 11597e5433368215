#include "cluster/wave_scheduler.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace efind {

PhaseSchedule ScheduleWaves(const std::vector<double>& durations,
                            int num_slots) {
  PhaseSchedule out;
  out.tasks.resize(durations.size());
  if (durations.empty()) return out;
  if (num_slots <= 0) num_slots = 1;

  // Min-heap of (free_time, slot).
  using SlotState = std::pair<double, int>;
  std::priority_queue<SlotState, std::vector<SlotState>,
                      std::greater<SlotState>>
      slots;
  for (int s = 0; s < num_slots; ++s) slots.emplace(0.0, s);

  out.first_wave_size =
      std::min(durations.size(), static_cast<size_t>(num_slots));

  for (size_t i = 0; i < durations.size(); ++i) {
    auto [free_at, slot] = slots.top();
    slots.pop();
    TaskSchedule& t = out.tasks[i];
    t.slot = slot;
    t.start = free_at;
    t.finish = free_at + durations[i];
    slots.emplace(t.finish, slot);
    out.makespan = std::max(out.makespan, t.finish);
  }
  return out;
}

PhaseSchedule ScheduleWaves(const std::vector<double>& durations,
                            const std::vector<double>& base_durations,
                            int num_slots, double threshold) {
  if (threshold <= 1.0 || durations.empty() ||
      base_durations.size() != durations.size()) {
    return ScheduleWaves(durations, num_slots);
  }
  if (num_slots <= 0) num_slots = 1;

  // A task's wave is its FIFO submission round (i / num_slots); the median
  // of each wave is the speculation baseline, as Hadoop compares a task's
  // progress against its peers launched in the same round.
  const size_t slots = static_cast<size_t>(num_slots);
  size_t speculative_launched = 0;
  size_t speculative_wins = 0;
  std::vector<double> effective(durations);
  struct BackupInfo {
    bool launched = false;
    bool won = false;
    double rel_start = 0.0;
    double rel_finish = 0.0;
  };
  std::vector<BackupInfo> backups(durations.size());
  std::vector<double> wave_sorted;
  for (size_t wave_begin = 0; wave_begin < durations.size();
       wave_begin += slots) {
    const size_t wave_end = std::min(durations.size(), wave_begin + slots);
    wave_sorted.assign(durations.begin() + wave_begin,
                       durations.begin() + wave_end);
    std::sort(wave_sorted.begin(), wave_sorted.end());
    const double median = wave_sorted[wave_sorted.size() / 2];
    if (median <= 0.0) continue;
    const double trigger = threshold * median;
    for (size_t i = wave_begin; i < wave_end; ++i) {
      if (durations[i] <= trigger) continue;
      // The backup launches when the primary exceeds the trigger and runs
      // at the task's un-faulted speed (a fresh attempt on a healthy slot).
      ++speculative_launched;
      const double backup_finish = trigger + base_durations[i];
      backups[i].launched = true;
      backups[i].rel_start = trigger;
      backups[i].rel_finish = backup_finish;
      if (backup_finish < durations[i]) {
        ++speculative_wins;
        backups[i].won = true;
        effective[i] = backup_finish;
      }
    }
  }

  PhaseSchedule out = ScheduleWaves(effective, num_slots);
  out.speculative_launched = speculative_launched;
  out.speculative_wins = speculative_wins;
  for (size_t i = 0; i < out.tasks.size(); ++i) {
    out.tasks[i].backup_launched = backups[i].launched;
    out.tasks[i].backup_won = backups[i].won;
    out.tasks[i].backup_rel_start = backups[i].rel_start;
    out.tasks[i].backup_rel_finish = backups[i].rel_finish;
  }
  return out;
}

}  // namespace efind
