#include "cluster/wave_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace efind {
namespace {

TEST(WaveSchedulerTest, EmptyInput) {
  PhaseSchedule s = ScheduleWaves({}, 4);
  EXPECT_DOUBLE_EQ(s.makespan, 0.0);
  EXPECT_EQ(s.first_wave_size, 0u);
}

TEST(WaveSchedulerTest, SingleTask) {
  PhaseSchedule s = ScheduleWaves({2.5}, 4);
  EXPECT_DOUBLE_EQ(s.makespan, 2.5);
  EXPECT_EQ(s.first_wave_size, 1u);
}

TEST(WaveSchedulerTest, FewerTasksThanSlotsRunInParallel) {
  PhaseSchedule s = ScheduleWaves({1.0, 2.0, 3.0}, 8);
  EXPECT_DOUBLE_EQ(s.makespan, 3.0);
  for (const auto& t : s.tasks) EXPECT_DOUBLE_EQ(t.start, 0.0);
}

TEST(WaveSchedulerTest, TwoWavesOnOneSlot) {
  PhaseSchedule s = ScheduleWaves({1.0, 2.0, 3.0}, 1);
  EXPECT_DOUBLE_EQ(s.makespan, 6.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 3.0);
  EXPECT_EQ(s.first_wave_size, 1u);
}

TEST(WaveSchedulerTest, FifoAssignsEarliestFreeSlot) {
  // Slots: 2. Tasks 4,1,1,1: task1 -> slot0 (4s), task2 -> slot1 (1s),
  // task3 -> slot1 at t=1, task4 -> slot1 at t=2. Makespan 4.
  PhaseSchedule s = ScheduleWaves({4.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(s.makespan, 4.0);
  EXPECT_DOUBLE_EQ(s.tasks[3].start, 2.0);
}

TEST(WaveSchedulerTest, FirstWaveFinishIsMaxOfFirstSlotCount) {
  PhaseSchedule s = ScheduleWaves({1.0, 5.0, 1.0, 1.0}, 2);
  EXPECT_EQ(s.first_wave_size, 2u);
  EXPECT_DOUBLE_EQ(std::max(s.tasks[0].finish, s.tasks[1].finish), 5.0);
}

TEST(WaveSchedulerTest, NonPositiveSlotsTreatedAsOne) {
  PhaseSchedule s = ScheduleWaves({1.0, 1.0}, 0);
  EXPECT_DOUBLE_EQ(s.makespan, 2.0);
}

TEST(SpeculativeWaveTest, BackupWinsCapsStraggler) {
  // Wave of 4: median 1, trigger 2; the 10s task's backup launches at t=2
  // and runs its 1s base duration, finishing at 3.
  PhaseSchedule s =
      ScheduleWaves({1.0, 1.0, 1.0, 10.0}, {1.0, 1.0, 1.0, 1.0}, 4, 2.0);
  EXPECT_DOUBLE_EQ(s.makespan, 3.0);
  EXPECT_EQ(s.speculative_launched, 1u);
  EXPECT_EQ(s.speculative_wins, 1u);
}

TEST(SpeculativeWaveTest, BackupLosesKeepsPrimary) {
  // The straggler triggers a backup (2.5 > 2) but the backup would finish
  // at 2 + 2.4 = 4.4, after the primary: the primary's finish stands.
  PhaseSchedule s =
      ScheduleWaves({1.0, 1.0, 1.0, 2.5}, {1.0, 1.0, 1.0, 2.4}, 4, 2.0);
  EXPECT_DOUBLE_EQ(s.makespan, 2.5);
  EXPECT_EQ(s.speculative_launched, 1u);
  EXPECT_EQ(s.speculative_wins, 0u);
}

TEST(SpeculativeWaveTest, ThresholdAtOrBelowOneDisables) {
  PhaseSchedule plain = ScheduleWaves({1.0, 1.0, 8.0}, 4);
  PhaseSchedule spec = ScheduleWaves({1.0, 1.0, 8.0}, {1.0, 1.0, 1.0}, 4, 1.0);
  EXPECT_DOUBLE_EQ(spec.makespan, plain.makespan);
  EXPECT_EQ(spec.speculative_launched, 0u);
}

TEST(SpeculativeWaveTest, UniformWaveLaunchesNothing) {
  PhaseSchedule s = ScheduleWaves({2.0, 2.0, 2.0, 2.0},
                                  {2.0, 2.0, 2.0, 2.0}, 2, 1.5);
  EXPECT_EQ(s.speculative_launched, 0u);
  EXPECT_DOUBLE_EQ(s.makespan, 4.0);
}

TEST(SpeculativeWaveTest, MedianIsPerWave) {
  // Slots 3: wave 0 = {1,1,1} (trigger 2, nothing), wave 1 = {2,2,20}
  // (median 2, trigger 4, the 20s task's backup finishes at 4 + 2 = 6).
  PhaseSchedule s =
      ScheduleWaves({1.0, 1.0, 1.0, 2.0, 2.0, 20.0},
                    {1.0, 1.0, 1.0, 2.0, 2.0, 2.0}, 3, 2.0);
  EXPECT_EQ(s.speculative_launched, 1u);
  EXPECT_EQ(s.speculative_wins, 1u);
  EXPECT_DOUBLE_EQ(s.makespan, 1.0 + 6.0);
}

TEST(SpeculativeWaveTest, MismatchedBaseVectorFallsBackToPlain) {
  PhaseSchedule plain = ScheduleWaves({1.0, 9.0}, 2);
  PhaseSchedule spec = ScheduleWaves({1.0, 9.0}, {1.0}, 2, 1.5);
  EXPECT_DOUBLE_EQ(spec.makespan, plain.makespan);
  EXPECT_EQ(spec.speculative_launched, 0u);
}

class SpeculativeWavePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpeculativeWavePropertyTest, NeverSlowerThanPlainSchedule) {
  const int slots = GetParam();
  Rng rng(1000 + slots);
  std::vector<double> base, faulted;
  for (int i = 0; i < 150; ++i) {
    const double b = 0.1 + rng.NextDouble();
    base.push_back(b);
    // A third of the tasks are inflated stragglers.
    faulted.push_back(rng.Uniform(3) == 0 ? b * (2.0 + 5 * rng.NextDouble())
                                          : b);
  }
  PhaseSchedule plain = ScheduleWaves(faulted, slots);
  PhaseSchedule spec = ScheduleWaves(faulted, base, slots, 1.5);
  EXPECT_LE(spec.makespan, plain.makespan + 1e-9);
  EXPECT_GE(spec.speculative_launched, spec.speculative_wins);
  // Speculation only changes which attempt supplies each task's finish
  // time: the task list and per-slot exclusivity hold.
  ASSERT_EQ(spec.tasks.size(), plain.tasks.size());
  std::vector<double> slot_free(slots, 0.0);
  for (const auto& t : spec.tasks) {
    EXPECT_GE(t.start + 1e-12, slot_free[t.slot]);
    slot_free[t.slot] = t.finish;
  }
  // Identical inputs give identical schedules (determinism).
  PhaseSchedule again = ScheduleWaves(faulted, base, slots, 1.5);
  EXPECT_EQ(spec.makespan, again.makespan);
  EXPECT_EQ(spec.speculative_launched, again.speculative_launched);
  EXPECT_EQ(spec.speculative_wins, again.speculative_wins);
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, SpeculativeWavePropertyTest,
                         ::testing::Values(1, 2, 7, 48, 96));

class WaveSchedulerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WaveSchedulerPropertyTest, MakespanBounds) {
  const int slots = GetParam();
  Rng rng(slots);
  std::vector<double> durations;
  double total = 0, longest = 0;
  for (int i = 0; i < 200; ++i) {
    const double d = 0.1 + rng.NextDouble();
    durations.push_back(d);
    total += d;
    longest = std::max(longest, d);
  }
  PhaseSchedule s = ScheduleWaves(durations, slots);
  // Classic list-scheduling bounds: max(longest, total/slots) <= makespan
  // <= total/slots + longest.
  EXPECT_GE(s.makespan + 1e-9, std::max(longest, total / slots));
  EXPECT_LE(s.makespan, total / slots + longest + 1e-9);
  // No slot runs two tasks at once.
  std::vector<double> slot_free(slots, 0.0);
  for (const auto& t : s.tasks) {
    EXPECT_GE(t.start + 1e-12, slot_free[t.slot]);
    slot_free[t.slot] = t.finish;
  }
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, WaveSchedulerPropertyTest,
                         ::testing::Values(1, 2, 7, 48, 96));

}  // namespace
}  // namespace efind
