// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Canonical plan fingerprints for cross-job artifact reuse (DESIGN.md §9).
//
// An operator's first re-partitioning shuffle (Eq. 3) produces a
// deterministic artifact: the job's input records, transformed by every
// upstream pipeline stage, with the operator's index keys extracted,
// re-keyed by the shuffled index's lookup key and grouped cluster-wide.
// Two jobs that agree on
//
//   input dataset  +  upstream operator chain  +  operator identity
//   +  shuffled index  +  layout (plain / co-partitioned)  +  partitions
//
// produce byte-identical artifacts, so one can adopt the other's stored
// output instead of paying the shuffle again (ReStore-style reuse). The
// fingerprint is the collision-free-in-practice name of that equivalence
// class: a 64-bit hash built only from splitmix-mixed words and FNV-1a
// string hashes — endian-stable and platform-independent. Later shuffles
// regroup data already augmented with earlier lookup results, so they are
// never stored and have no name.
//
// Canonicalization rules (what is deliberately *excluded*):
//  - Inline (baseline / lookup-cache) accesses of the operator: they run
//    *after* the adopted artifact in the follow-up job, so neither their
//    order nor their base-vs-cache choice affects artifact content
//    (Properties 1–3). The fingerprint takes the shuffled index only.
//  - Record placement: which node hosts a split changes scheduling, not
//    content, so `FingerprintSplits` hashes records only.
// Everything that *can* change artifact content or reuse safety is folded
// in: accessor configuration and version fingerprints, dataset version,
// mapper/reducer identity, the partition count and layout of the shuffle.

#ifndef EFIND_REUSE_FINGERPRINT_H_
#define EFIND_REUSE_FINGERPRINT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "efind/plan.h"
#include "mapreduce/record.h"

namespace efind {
namespace reuse {

/// Order-sensitive 64-bit fold. Every word passes through the splitmix64
/// finalizer before entering the state, so `Fold(a); Fold(b)` and
/// `Fold(b); Fold(a)` differ and zero-valued inputs still perturb.
class FingerprintHasher {
 public:
  FingerprintHasher& Fold(uint64_t v) {
    state_ = Mix64(state_ ^ Mix64(v + 0x9E3779B97F4A7C15ULL));
    return *this;
  }
  FingerprintHasher& Fold(std::string_view s) { return Fold(Hash64(s)); }

  uint64_t Finish() const { return Mix64(state_); }

 private:
  uint64_t state_ = 0x243F6A8885A308D3ULL;  // pi fraction, arbitrary.
};

/// Content hash of a job input: per-split record sequences (key, value,
/// virtual size), excluding node placement. Split boundaries are folded —
/// conservative, but boundary changes re-chunk the map side.
uint64_t FingerprintSplits(const std::vector<InputSplit>& splits);

/// Identity + configuration + version of one accessor: folds the accessor's
/// `ConfigFingerprint()` (name and behaviour-relevant knobs) with its
/// `VersionFingerprint()` (backing-store mutation counter), so a config
/// tweak or an index write both change every dependent fingerprint.
uint64_t AccessorFingerprint(const IndexAccessor& accessor);

/// Identity of one operator independent of any plan: `ReuseToken()` plus
/// the ordered accessor fingerprints (PreProcess extracts keys for every
/// index, so all accessors shape the artifact's attachments).
uint64_t OperatorChainToken(const IndexOperator& op);

/// The dataset fingerprint a job runs over: the conf's registered
/// `input_dataset` id + version when set (cheap, ReStore-style named
/// datasets), else a content hash of the actual splits.
uint64_t DatasetFingerprint(const IndexJobConf& conf,
                            const std::vector<InputSplit>& input);

/// Physical layout of a stored artifact.
enum class ArtifactLayout {
  /// Plain re-partitioning: grouped by lookup key over the default
  /// hash partitioner (Eq. 3).
  kRepartition,
  /// Index locality: co-partitioned with the index's own scheme (Eq. 4).
  kIndexLocality,
};

/// Name of the artifact operator (`pos`, `op_index`)'s first shuffle
/// produces when it groups by `index` in `layout` over `partition_count`
/// partitions. Folds everything upstream of the operator (dataset, prior
/// head/body/tail operators in data-flow order, the mapper for body/tail,
/// reducer and reduce-task count for tail), the operator's own
/// `OperatorChainToken`, the index, the layout and the partition count.
/// The executor publishes and resolves under it, and the planner probes it.
uint64_t FirstShuffleFingerprint(const IndexJobConf& conf, uint64_t dataset_fp,
                                 OperatorPosition pos, int op_index, int index,
                                 ArtifactLayout layout, int partition_count);

}  // namespace reuse
}  // namespace efind

#endif  // EFIND_REUSE_FINGERPRINT_H_
