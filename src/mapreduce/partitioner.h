// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_PARTITIONER_H_
#define EFIND_MAPREDUCE_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"

namespace efind {

/// Assigns map-output records to reduce tasks by key. EFind's index-locality
/// strategy swaps in a partitioner derived from the index's own partition
/// scheme so shuffle output is co-partitioned with the index (paper §3.4).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual std::string name() const = 0;
  /// Returns the reduce task in [0, num_partitions) for `key`.
  virtual int Partition(std::string_view key, int num_partitions) const = 0;
};

/// Hadoop's default, with the modulo replaced by a multiplicative range
/// reduction (FastRange64): same uniformity, no integer division on the
/// per-record hot path.
class HashPartitioner : public Partitioner {
 public:
  std::string name() const override { return "hash"; }
  int Partition(std::string_view key, int num_partitions) const override {
    return FromHash(Hash64(key), num_partitions);
  }
  /// The same mapping from an already-computed `Hash64(key)` — the batched
  /// shuffle sweep hashes each key exactly once and feeds both the
  /// partitioner and the batch entry from it.
  static int FromHash(uint64_t hash, int num_partitions) {
    return static_cast<int>(
        FastRange64(hash, static_cast<uint64_t>(num_partitions)));
  }
};

/// Per-map-task round-robin salt state for `SaltingPartitioner`. One
/// instance lives on each map task's stack and cycles a hot key's
/// occurrences through salts 0..fanout-1 in record order. Record order
/// within a task is fixed (split order), so the salt sequence — and with it
/// every bucket's contents — is bit-identical at any thread count.
class SaltCycler {
 public:
  uint32_t NextSalt(uint64_t key_hash, int fanout) {
    uint32_t& c = counters_[key_hash];
    const uint32_t salt = c;
    c = c + 1 == static_cast<uint32_t>(fanout) ? 0 : c + 1;
    return salt;
  }

 private:
  std::unordered_map<uint64_t, uint32_t> counters_;
};

/// Skew-aware sibling of `HashPartitioner` (DESIGN.md §12). Cold keys route
/// exactly like `HashPartitioner`; the detected heavy-hitter keys are spread
/// round-robin across `fanout` salted sub-partitions, breaking the one
/// reducer that would otherwise serialize a hot key's whole shuffle wave.
/// The sub-partition set of a hot key is a pure function of (key hash, salt,
/// fanout), so the split is deterministic and the consumer can merge the
/// sub-groups back in fixed salt order.
///
/// The engine's map sweep special-cases this type the way it does
/// `HashPartitioner`: the key's precomputed `Hash64` feeds `PartitionHash`
/// together with a per-task `SaltCycler`, and the batch entry keeps the
/// *unsalted* hash so reduce-side grouping still groups by the true key.
class SaltingPartitioner : public Partitioner {
 public:
  SaltingPartitioner(std::vector<uint64_t> hot_key_hashes, int fanout)
      : hot_list_(std::move(hot_key_hashes)),
        hot_(hot_list_.begin(), hot_list_.end()),
        fanout_(fanout < 2 ? 2 : fanout) {}

  std::string name() const override { return "salting"; }

  /// Stateless view (no per-record salt cycling): hot keys take their
  /// salt-0 sub-partition. The engine uses `PartitionHash` instead.
  int Partition(std::string_view key, int num_partitions) const override {
    const uint64_t h = Hash64(key);
    return IsHot(h) ? Salted(h, 0, num_partitions)
                    : HashPartitioner::FromHash(h, num_partitions);
  }

  /// The hot-path mapping from a precomputed `Hash64(key)`: cold keys exactly
  /// as `HashPartitioner::FromHash`, hot keys to the sub-partition of the
  /// next salt in this task's cycle.
  int PartitionHash(uint64_t key_hash, SaltCycler* cycler,
                    int num_partitions) const {
    if (!IsHot(key_hash)) {
      return HashPartitioner::FromHash(key_hash, num_partitions);
    }
    return Salted(key_hash, cycler->NextSalt(key_hash, fanout_),
                  num_partitions);
  }

  /// Sub-partition of a hot key under `salt` (salt folded into the hash, so
  /// no second pass over the key bytes).
  static int Salted(uint64_t key_hash, uint32_t salt, int num_partitions) {
    return HashPartitioner::FromHash(
        Mix64(key_hash ^ ((salt + 1) * 0x9E3779B97F4A7C15ULL)),
        num_partitions);
  }

  bool IsHot(uint64_t key_hash) const { return hot_.count(key_hash) != 0; }
  int fanout() const { return fanout_; }
  const std::vector<uint64_t>& hot_key_hashes() const { return hot_list_; }

 private:
  std::vector<uint64_t> hot_list_;
  std::unordered_set<uint64_t> hot_;
  int fanout_;
};

}  // namespace efind

#endif  // EFIND_MAPREDUCE_PARTITIONER_H_
