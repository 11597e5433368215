// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_LRU_CACHE_H_
#define EFIND_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace efind {

/// A fixed-capacity LRU cache mapping `Key` to `Value`.
///
/// This backs EFind's *lookup cache strategy* (paper Section 3.2): before
/// invoking `IndexAccessor::lookup` for a key, the runtime probes this cache;
/// a hit returns the cached result list and skips the (remote) lookup.
///
/// The capacity is measured in entries (the paper fixes it at 1024 entries
/// and leaves size tuning to future work; `bench_ablation_cache_size` sweeps
/// it). Not thread-safe; in the simulated cluster each node owns one cache
/// and tasks on a node run sequentially per slot.
///
/// Layout: entries live in a flat slot array, threaded into a recency list
/// by slot index (head = most recently used). An open-addressing index with
/// linear probing maps keys to slots; each bucket keeps 32 bits of the
/// key's mixed hash, so a probe compares keys only on a tag match and
/// eviction and growth never rehash a key. A full cache reuses the least
/// recently used slot in place. Both arrays grow only as entries are
/// filled (the slot array never past `capacity`); nothing is reserved up
/// front. Hit, miss and eviction order are exact LRU.
template <typename Key, typename Value>
class LruCache {
 public:
  /// Creates a cache holding at most `capacity` entries. A capacity of 0
  /// disables caching (every Get misses, Put is a no-op).
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Looks up `key`; on a hit, moves the entry to the front (most recently
  /// used), writes the value to `*value`, and returns true.
  bool Get(const Key& key, Value* value) {
    ++probes_;
    const uint32_t slot = slots_.empty() ? kNil : Find(key, TagOf(key));
    if (slot == kNil) {
      ++misses_;
      return false;
    }
    MoveToFront(slot);
    *value = slots_[slot].value;
    return true;
  }

  /// Inserts or refreshes `key` with `value`, evicting the least recently
  /// used entry if the cache is full.
  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    const uint32_t tag = TagOf(key);
    uint32_t slot = slots_.empty() ? kNil : Find(key, tag);
    if (slot != kNil) {
      slots_[slot].value = std::move(value);
      MoveToFront(slot);
      return;
    }
    if (slots_.size() >= capacity_) {
      slot = tail_;
      EraseBucket(slot);
      Unlink(slot);
      slots_[slot].key = key;
      slots_[slot].value = std::move(value);
      slots_[slot].tag = tag;
    } else {
      if (2 * (slots_.size() + 1) > buckets_.size()) {
        Rehash(buckets_.empty() ? kMinBuckets : 2 * buckets_.size());
      }
      if (slots_.size() == slots_.capacity()) {
        slots_.reserve(
            std::min(capacity_, std::max<size_t>(4, 2 * slots_.size())));
      }
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{key, std::move(value), tag, kNil, kNil});
    }
    LinkFront(slot);
    InsertBucket(slot);
  }

  /// Removes all entries and resets hit/miss statistics.
  void Clear() {
    slots_.clear();
    buckets_.clear();
    head_ = tail_ = kNil;
    probes_ = 0;
    misses_ = 0;
  }

  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }

  /// Total number of Get calls since construction or Clear.
  uint64_t probes() const { return probes_; }
  /// Number of Get calls that missed.
  uint64_t misses() const { return misses_; }
  /// Observed miss ratio R (paper Table 1); 1.0 when never probed.
  double miss_ratio() const {
    return probes_ == 0 ? 1.0
                        : static_cast<double>(misses_) /
                              static_cast<double>(probes_);
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kMinBuckets = 4;

  struct Slot {
    Key key;
    Value value;
    uint32_t tag;   // High 32 bits of the key's mixed hash.
    uint32_t prev;  // Toward the most recently used entry.
    uint32_t next;  // Toward the least recently used entry.
  };
  struct Bucket {
    uint32_t tag = 0;
    uint32_t slot = kNil;  // kNil marks an empty bucket.
  };

  /// Fibonacci-mixes the key's hash so the high bits (bucket home and tag)
  /// depend on every input bit, even for identity-hashed integers.
  static uint32_t TagOf(const Key& key) {
    const uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    return static_cast<uint32_t>((h * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  size_t Home(uint32_t tag) const { return tag >> shift_; }
  size_t mask() const { return buckets_.size() - 1; }

  uint32_t Find(const Key& key, uint32_t tag) const {
    for (size_t i = Home(tag);; i = (i + 1) & mask()) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil) return kNil;
      if (b.tag == tag && slots_[b.slot].key == key) return b.slot;
    }
  }

  void InsertBucket(uint32_t slot) {
    const uint32_t tag = slots_[slot].tag;
    size_t i = Home(tag);
    while (buckets_[i].slot != kNil) i = (i + 1) & mask();
    buckets_[i] = Bucket{tag, slot};
  }

  /// Removes `slot`'s bucket by backward-shift deletion: later entries of
  /// the probe run move into the hole unless that would put them before
  /// their home bucket, so no tombstones accumulate.
  void EraseBucket(uint32_t slot) {
    size_t hole = Home(slots_[slot].tag);
    while (buckets_[hole].slot != slot) hole = (hole + 1) & mask();
    for (size_t j = (hole + 1) & mask(); buckets_[j].slot != kNil;
         j = (j + 1) & mask()) {
      if (((j - Home(buckets_[j].tag)) & mask()) >= ((j - hole) & mask())) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].slot = kNil;
  }

  /// Rebuilds the index with `n` (a power of two) buckets.
  void Rehash(size_t n) {
    buckets_.assign(n, Bucket());
    shift_ = 32;
    for (size_t m = n; m > 1; m >>= 1) --shift_;
    for (uint32_t s = 0; s < slots_.size(); ++s) InsertBucket(s);
  }

  void Unlink(uint32_t slot) {
    Slot& e = slots_[slot];
    if (e.prev != kNil) {
      slots_[e.prev].next = e.next;
    } else {
      head_ = e.next;
    }
    if (e.next != kNil) {
      slots_[e.next].prev = e.prev;
    } else {
      tail_ = e.prev;
    }
  }

  void LinkFront(uint32_t slot) {
    Slot& e = slots_[slot];
    e.prev = kNil;
    e.next = head_;
    if (head_ != kNil) slots_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  void MoveToFront(uint32_t slot) {
    if (slot == head_) return;
    Unlink(slot);
    LinkFront(slot);
  }

  size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;  // Power-of-two size, load <= 1/2.
  int shift_ = 32;               // Home(tag) = tag >> shift_.
  uint32_t head_ = kNil;         // Most recently used slot.
  uint32_t tail_ = kNil;         // Least recently used slot.
  uint64_t probes_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace efind

#endif  // EFIND_COMMON_LRU_CACHE_H_
