// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_SKEW_DETECTOR_H_
#define EFIND_MAPREDUCE_SKEW_DETECTOR_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace efind {

/// Heavy-hitter detector over a key stream (DESIGN.md §12).
///
/// Counts exact per-key-hash frequencies, so "hot" is judged both against
/// an absolute share threshold (the knob) and against the uniform share
/// implied by the exact distinct count — a fixed threshold alone would flag
/// every key of a tiny domain.
///
/// Determinism: one instance per task, fed in that task's fixed record
/// order, merged across tasks in task-index order (exact counts make the
/// merged totals order-independent anyway), and `HotKeys()` sorts its
/// result canonically — so the hot set is bit-identical at any thread
/// count.
class SkewDetector {
 public:
  struct HotKey {
    uint64_t hash = 0;
    uint64_t count = 0;
  };

  /// Feeds one occurrence of the key with `Hash64` value `key_hash`.
  void Observe(uint64_t key_hash) {
    ++counts_[key_hash];
    ++total_;
  }

  /// Folds another (per-task) detector into this one.
  void Merge(const SkewDetector& other) {
    for (const auto& [hash, count] : other.counts_) counts_[hash] += count;
    total_ += other.total_;
  }

  /// Keys observed on a share of the stream >= `threshold` (and >= a few
  /// times the uniform share 1/distinct, see class comment), hottest first
  /// with ties broken by hash; at most `max_keys` entries. Deterministic.
  std::vector<HotKey> HotKeys(double threshold, size_t max_keys = 64) const {
    std::vector<HotKey> hot;
    if (total_ == 0 || threshold <= 0.0) return hot;
    const double floor_share = UniformGuardShare();
    const double min_share = std::max(threshold, floor_share);
    for (const auto& [hash, count] : counts_) {
      const double share =
          static_cast<double>(count) / static_cast<double>(total_);
      if (share >= min_share) hot.push_back({hash, count});
    }
    std::sort(hot.begin(), hot.end(), [](const HotKey& a, const HotKey& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.hash < b.hash;
    });
    if (hot.size() > max_keys) hot.resize(max_keys);
    return hot;
  }

  /// Share of the stream held by the single most frequent key (0 when
  /// nothing observed). The cost model's skew term acts on this even when
  /// it stays below the hot threshold.
  double MaxShare() const {
    if (total_ == 0) return 0.0;
    uint64_t max_count = 0;
    for (const auto& [hash, count] : counts_) {
      (void)hash;
      max_count = std::max(max_count, count);
    }
    return static_cast<double>(max_count) / static_cast<double>(total_);
  }

  uint64_t total() const { return total_; }

 private:
  /// A key only counts as hot when it is at least `kUniformGuard` times
  /// hotter than a perfectly uniform key would be. Uses the exact distinct
  /// count (an FM estimate is too noisy at the tiny cardinalities this
  /// guard exists for).
  double UniformGuardShare() const {
    static constexpr double kUniformGuard = 4.0;
    const double distinct = std::max<double>(1.0, counts_.size());
    return std::min(1.0, kUniformGuard / distinct);
  }

  std::unordered_map<uint64_t, uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_SKEW_DETECTOR_H_
