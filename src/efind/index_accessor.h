// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_INDEX_ACCESSOR_H_
#define EFIND_EFIND_INDEX_ACCESSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/partition_scheme.h"
#include "common/status.h"
#include "mapreduce/record.h"

namespace efind {

namespace store {
class BatchedLookupHandle;
}  // namespace store

/// EFind's per-index-type access interface (paper Fig. 2).
///
/// An `IndexAccessor` is "implemented once for each type of index and can be
/// reused for the same type of index": the KV store, the distributed B-tree,
/// the cell-partitioned R*-tree, and simulated cloud services each have one
/// (see efind/accessors/). EFind itself treats the index as a black box —
/// `Lookup` is the only functional requirement.
///
/// The remaining methods expose what the runtime needs for optimization:
/// the service-time model (T_j of Table 1), the optional partition scheme
/// (enables the index-locality strategy, §3.4), and the idempotence flag
/// (the §3.2 assumption "an index lookup with the same key returns the same
/// result during an EFind enhanced job"; developers "can force EFind to use
/// the baseline strategy if this assumption is false").
class IndexAccessor {
 public:
  virtual ~IndexAccessor() = default;

  /// Name for plan dumps and statistics (e.g. "kv:orders").
  virtual std::string name() const = 0;

  /// Looks up index key `ik`, appending the result list {iv} to `*out`.
  /// NotFound is a valid outcome (empty result list); other errors abort
  /// the job.
  virtual Status Lookup(const std::string& ik,
                        std::vector<IndexValue>* out) = 0;

  /// Simulated server-side time to serve one lookup whose results total
  /// `result_bytes` (the T_j term; network transfer is charged separately
  /// by the runtime for remote lookups).
  virtual double ServiceSeconds(uint64_t result_bytes) const = 0;

  /// Extra per-call overhead when this index is accessed remotely, beyond
  /// the cluster-wide RPC constant — e.g. Java-RMI-style marshalling of
  /// query/result objects. Local lookups (index locality) skip it.
  virtual double RemoteOverheadSeconds() const { return 0.0; }

  /// The index's partition scheme, or null when the index cannot expose one
  /// (e.g. an external cloud service). Non-null enables index locality.
  virtual const PartitionScheme* partition_scheme() const { return nullptr; }

  /// Whether repeated lookups of one key return identical results within a
  /// job. When false, EFind restricts this index to the baseline strategy.
  virtual bool idempotent() const { return true; }

  /// Stable hash of the accessor's identity and every behaviour-relevant
  /// configuration knob (used by cross-job reuse fingerprints, DESIGN.md
  /// §9). Accessors with tunables — a kNN's k, a service's idempotence —
  /// must fold them in: any config change must change the fingerprint.
  virtual uint64_t ConfigFingerprint() const { return Hash64(name()); }

  /// Monotonic version of the backing data. Bump on every mutation so
  /// artifacts derived from older index contents become unreachable
  /// (reuse invalidation by construction). Immutable indices return 0.
  virtual uint64_t VersionFingerprint() const { return 0; }
};

/// Capability interface: accessors whose backend can serve many
/// outstanding lookups per handle (page-packed stores). The lookup stages
/// detect it with dynamic_cast and submit such a site's lookups to the
/// task's pending-lookup buffer; accessors without it are looked up one
/// blocking call at a time. The handle protocol, with its completion and
/// outcome types, is the store's (store/lookup_queue.h, DESIGN.md §13).
class BatchedLookupIndex {
 public:
  virtual ~BatchedLookupIndex() = default;
  virtual std::unique_ptr<store::BatchedLookupHandle> NewBatch() const = 0;
};

}  // namespace efind

#endif  // EFIND_EFIND_INDEX_ACCESSOR_H_
