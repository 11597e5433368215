// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Concrete `IndexAccessor`s for the substrates in this repository — one per
// index type, reusable across jobs (paper Fig. 3 implements exactly one of
// these, `UserProfileAccessor`, for a Cassandra-backed user profile index).

#ifndef EFIND_EFIND_ACCESSORS_ACCESSORS_H_
#define EFIND_EFIND_ACCESSORS_ACCESSORS_H_

#include <memory>
#include <string>
#include <vector>

#include "btree/distributed_btree.h"
#include "efind/index_accessor.h"
#include "kvstore/kv_store.h"
#include "rtree/cell_rtree.h"
#include "service/cloud_service.h"
#include "store/packed_store.h"
#include "textidx/inverted_index.h"

namespace efind {

/// Accessor for the Cassandra-style `KvStore` (hash partition scheme
/// exposed, so index locality applies).
class KvIndexAccessor : public IndexAccessor {
 public:
  /// `store` is not owned and must outlive the accessor.
  KvIndexAccessor(std::string name, const KvStore* store)
      : name_(std::move(name)), store_(store) {}

  std::string name() const override { return "kv:" + name_; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override;
  double ServiceSeconds(uint64_t result_bytes) const override {
    return store_->ServiceSeconds(result_bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return &store_->scheme();
  }
  uint64_t VersionFingerprint() const override { return store_->version(); }

 private:
  std::string name_;
  const KvStore* store_;
};

/// Accessor for the range-partitioned `DistributedBTree` (range partition
/// scheme exposed).
class BTreeIndexAccessor : public IndexAccessor {
 public:
  BTreeIndexAccessor(std::string name, const DistributedBTree* tree)
      : name_(std::move(name)), tree_(tree) {}

  std::string name() const override { return "btree:" + name_; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override;
  double ServiceSeconds(uint64_t result_bytes) const override {
    return tree_->ServiceSeconds(result_bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return &tree_->scheme();
  }

 private:
  std::string name_;
  const DistributedBTree* tree_;
};

/// k-nearest-neighbor accessor over the cell-partitioned R*-tree: the index
/// key is an encoded query point (`EncodePoint`), the result is the k
/// nearest points of the indexed set, each serialized as "id:x,y". The grid
/// partition scheme is exposed, so index locality applies (the paper's OSM
/// experiment finds it optimal).
class RTreeKnnAccessor : public IndexAccessor {
 public:
  /// `per_result_extra_bytes` models the full indexed record (tags,
  /// attributes) returned with each neighbor beyond the serialized id and
  /// coordinates. `remote_overhead_sec` is the RMI-style per-call
  /// marshalling cost of the spatial query protocol (skipped by local
  /// lookups under index locality).
  RTreeKnnAccessor(std::string name, const CellPartitionedRTree* index, int k,
                   uint64_t per_result_extra_bytes = 0,
                   double remote_overhead_sec = 300e-6)
      : name_(std::move(name)),
        index_(index),
        k_(k),
        per_result_extra_bytes_(per_result_extra_bytes),
        remote_overhead_sec_(remote_overhead_sec) {}

  std::string name() const override { return "rtree:" + name_; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override;
  double ServiceSeconds(uint64_t result_bytes) const override {
    return index_->ServiceSeconds(result_bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return &index_->scheme();
  }
  double RemoteOverheadSeconds() const override {
    return remote_overhead_sec_;
  }
  uint64_t ConfigFingerprint() const override {
    // k and the result-size model change the artifact's attachments, so
    // they must split the reuse equivalence class.
    uint64_t fp = Hash64(name());
    fp = Mix64(fp ^ Mix64(static_cast<uint64_t>(k_)));
    fp = Mix64(fp ^ Mix64(per_result_extra_bytes_));
    return fp;
  }

  int k() const { return k_; }

 private:
  std::string name_;
  const CellPartitionedRTree* index_;
  int k_;
  uint64_t per_result_extra_bytes_;
  double remote_overhead_sec_;
};

/// Accessor for the distributed `InvertedIndex`: the index key is a term,
/// the result is its postings list serialized one value per posting as
/// "doc_id:tf" (hash partition scheme exposed).
class InvertedIndexAccessor : public IndexAccessor {
 public:
  InvertedIndexAccessor(std::string name, const InvertedIndex* index)
      : name_(std::move(name)), index_(index) {}

  std::string name() const override { return "text:" + name_; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override;
  double ServiceSeconds(uint64_t result_bytes) const override {
    return index_->ServiceSeconds(result_bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return &index_->scheme();
  }

 private:
  std::string name_;
  const InvertedIndex* index_;
};

/// Accessor for the on-disk `store::PackedObjectStore` (DESIGN.md §13).
/// Exposes the store's hash partition scheme, so all four strategies —
/// cache, repart, salted, idxloc — apply, and implements
/// `BatchedLookupIndex` so the lookup stages can drive it with many
/// outstanding lookups per batch (page coalescing + amortized page I/O).
class PackedStoreAccessor : public IndexAccessor, public BatchedLookupIndex {
 public:
  /// `store` is not owned and must outlive the accessor.
  PackedStoreAccessor(std::string name, const store::PackedObjectStore* store)
      : name_(std::move(name)), store_(store) {}

  std::string name() const override { return "store:" + name_; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override;
  double ServiceSeconds(uint64_t result_bytes) const override {
    return store_->ServiceSeconds(result_bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return &store_->scheme();
  }
  uint64_t ConfigFingerprint() const override;
  /// Build generation of the backing directory: a rebuilt store invalidates
  /// reuse artifacts by construction.
  uint64_t VersionFingerprint() const override { return store_->version(); }

  std::unique_ptr<store::BatchedLookupHandle> NewBatch() const override;

  const store::PackedObjectStore* store() const { return store_; }

 private:
  std::string name_;
  const store::PackedObjectStore* store_;
};

/// Accessor for a simulated external `CloudService`. No partition scheme
/// (the service is a single endpoint), so index locality does not apply.
class CloudServiceAccessor : public IndexAccessor {
 public:
  /// `service` is not owned and must outlive the accessor. Set `idempotent`
  /// to false for services whose responses vary across calls.
  explicit CloudServiceAccessor(const CloudService* service,
                                bool idempotent = true)
      : service_(service), idempotent_(idempotent) {}

  std::string name() const override { return "svc:" + service_->name(); }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    return service_->Lookup(ik, out);
  }
  double ServiceSeconds(uint64_t result_bytes) const override {
    return service_->ServiceSeconds(result_bytes);
  }
  bool idempotent() const override { return idempotent_; }
  uint64_t ConfigFingerprint() const override {
    return Mix64(Hash64(name()) ^ (idempotent_ ? 1 : 2));
  }

 private:
  const CloudService* service_;
  bool idempotent_;
};

}  // namespace efind

#endif  // EFIND_EFIND_ACCESSORS_ACCESSORS_H_
