// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_SKEW_DETECTOR_H_
#define EFIND_MAPREDUCE_SKEW_DETECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace efind {

/// Heavy-hitter detector over a key stream (DESIGN.md §12).
///
/// Counts exact per-key-hash frequencies, so "hot" is judged both against
/// an absolute share threshold (the knob) and against the uniform share
/// implied by the exact distinct count — a fixed threshold alone would flag
/// every key of a tiny domain.
///
/// Layout: a flat open-addressing table of `{hash, count}` slots with
/// linear probing, grown at half load. `count == 0` marks an empty slot, so
/// every hash value, 0 included, is a valid key. The home slot is the high
/// bits of the Fibonacci-mixed hash (the `LruCache` idiom), so adversarial
/// hashes that share their low or high bits still spread.
///
/// Determinism: one instance per task, fed in that task's fixed record
/// order, merged across tasks in task-index order (exact counts make the
/// merged totals order-independent anyway), and the hot set is sorted
/// canonically — so it is bit-identical at any thread count and for any
/// table layout.
class SkewDetector {
 public:
  struct HotKey {
    uint64_t hash = 0;
    uint64_t count = 0;
  };

  /// The max share and the hot set of one table scan (see `Summarize`).
  struct Summary {
    double max_share = 0.0;
    std::vector<HotKey> hot;
  };

  /// Feeds one occurrence of the key with `Hash64` value `key_hash`.
  void Observe(uint64_t key_hash) {
    Add(key_hash, 1);
    ++total_;
  }

  /// Folds another (per-task) detector into this one.
  void Merge(const SkewDetector& other) {
    for (const Slot& s : other.slots_) {
      if (s.count != 0) Add(s.hash, s.count);
    }
    total_ += other.total_;
  }

  /// One scan for both statistics the optimizer reads. `max_share` is the
  /// share of the stream held by the single most frequent key (0 when
  /// nothing observed); the cost model's skew term acts on it even when it
  /// stays below the hot threshold. `hot` lists the keys observed on a
  /// share of the stream >= `threshold` (and >= a few times the uniform
  /// share 1/distinct, see class comment), hottest first with ties broken
  /// by hash; at most `max_keys` entries.
  Summary Summarize(double threshold, size_t max_keys = 64) const {
    Summary out;
    if (total_ == 0) return out;
    const double total = static_cast<double>(total_);
    const bool want_hot = threshold > 0.0;
    const double min_share = std::max(threshold, UniformGuardShare());
    uint64_t max_count = 0;
    for (const Slot& s : slots_) {
      if (s.count == 0) continue;
      max_count = std::max(max_count, s.count);
      if (want_hot && static_cast<double>(s.count) / total >= min_share) {
        out.hot.push_back({s.hash, s.count});
      }
    }
    out.max_share = static_cast<double>(max_count) / total;
    std::sort(out.hot.begin(), out.hot.end(),
              [](const HotKey& a, const HotKey& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.hash < b.hash;
              });
    if (out.hot.size() > max_keys) out.hot.resize(max_keys);
    return out;
  }

  /// The hot set of `Summarize(threshold, max_keys)`.
  std::vector<HotKey> HotKeys(double threshold, size_t max_keys = 64) const {
    return Summarize(threshold, max_keys).hot;
  }

  /// The max share of `Summarize` (skips the hot-set pass).
  double MaxShare() const { return Summarize(0.0).max_share; }

  uint64_t total() const { return total_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t count = 0;  // 0 marks an empty slot.
  };
  static constexpr size_t kMinSlots = 16;

  /// A key only counts as hot when it is at least `kUniformGuard` times
  /// hotter than a perfectly uniform key would be. Uses the exact distinct
  /// count (an FM estimate is too noisy at the tiny cardinalities this
  /// guard exists for).
  double UniformGuardShare() const {
    static constexpr double kUniformGuard = 4.0;
    const double distinct = std::max<double>(1.0, static_cast<double>(size_));
    return std::min(1.0, kUniformGuard / distinct);
  }

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Add(uint64_t hash, uint64_t count) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s = Slot{hash, count};
        ++size_;
        return;
      }
      if (s.hash == hash) {
        s.count += count;
        return;
      }
    }
  }

  /// Rebuilds the table with `n` (a power of two) slots.
  void Rehash(size_t n) {
    std::vector<Slot> old(n);
    old.swap(slots_);
    shift_ = 64;
    for (size_t m = n; m > 1; m >>= 1) --shift_;
    const size_t mask = n - 1;
    for (const Slot& s : old) {
      if (s.count == 0) continue;
      size_t i = Home(s.hash);
      while (slots_[i].count != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  // Power-of-two size, load <= 1/2.
  int shift_ = 64;           // Home(hash) = mixed hash >> shift_.
  size_t size_ = 0;          // Distinct keys (occupied slots).
  uint64_t total_ = 0;
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_SKEW_DETECTOR_H_
