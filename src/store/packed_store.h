// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// On-disk packed object store (DESIGN.md §13), PaCHash-style. Variable-size
// objects — one per distinct key, holding the key's full value list — are
// sorted by key hash and packed back-to-back into page-aligned blocks on
// disk, so a block holds many small objects and a large object may span
// blocks. Because `FastRange64` is monotone in the hash, hash order is also
// bin order, and the only per-partition index is an Elias-Fano sequence of
// block → first-bin: a lookup maps its key hash to a bin, predecessor-
// searches the sequence for the candidate block range, and reads those
// pages. RAM cost is a few bits per block; everything else lives on disk.
//
// The store is immutable after `PackedStoreBuilder::Build` (bulk build from
// a RecordBatch staging area, §11 layout). Lookups go through a `PageReader`
// so callers choose the I/O policy: `Get` reads pages directly (pread on a
// shared per-partition fd — thread-safe, no mutable store state), while the
// `BatchedLookupQueue` (lookup_queue.h) layers a per-flush page cache on
// top to coalesce lookups landing on the same pages.

#ifndef EFIND_STORE_PACKED_STORE_H_
#define EFIND_STORE_PACKED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "kvstore/kv_store.h"
#include "mapreduce/record.h"
#include "mapreduce/record_batch.h"
#include "store/elias_fano.h"

namespace efind {
namespace store {

/// Tunables for a packed store. Persisted in the store's manifest so a
/// reload sees the exact build-time geometry.
struct PackedStoreOptions {
  /// Directory holding part<N>.g<G>.dat / part<N>.g<G>.idx / manifest.txt,
  /// where G is the build generation. The manifest — sealed with a durable
  /// footer and committed last via atomic rename — names the live
  /// generation; files of other generations are dead and GC'd by the next
  /// successful build.
  std::string dir;
  /// Page (block) size in bytes. The last two bytes of every page are the
  /// offset of the first object starting in it, so 64 <= page_bytes <= 65536.
  uint64_t page_bytes = 4096;
  /// Fill degree in (0, 1]: fraction of each page's payload area the build
  /// streams objects into. < 1 trades space for shorter candidate ranges.
  double fill = 1.0;
  /// Bins per block for the hash→bin mapping (PaCHash's `a`). More bins
  /// narrow the candidate block range at ~log2(a) extra index bits/block.
  uint64_t bins_per_block = 8;
  /// Placement geometry, mirroring the paper's Cassandra setup.
  int num_partitions = 32;
  int replication = 3;
  int num_nodes = 12;
  /// CPU-side service time per lookup (header decode, bin search, object
  /// scan). Page I/O is deliberately NOT included here — the runtime
  /// charges it per distinct page via `ClusterConfig::PageBatchSeconds`,
  /// which is what makes batch depth visible in the figures.
  double base_service_sec = 20e-6;
  double serve_per_byte_sec = 2e-9;
};

/// Checks option sanity; returns false and sets `reason` on a bad config.
bool ValidatePackedStoreOptions(const PackedStoreOptions& options,
                                std::string* reason);

/// Immutable page-packed object store over one directory. All public const
/// methods are thread-safe (pread on shared fds; no mutable state).
class PackedObjectStore {
 public:
  /// Per-lookup page accounting, reported by the paged lookup path.
  struct LookupInfo {
    int partition = -1;
    /// First block of the candidate range (orders batched completions).
    uint64_t first_block = 0;
    /// Pages this lookup touches when served alone (candidate range plus
    /// any spill pages of a range-straddling object).
    uint64_t pages = 0;
  };

  /// Page access abstraction. `Read` points `*data` at the page_bytes
  /// bytes of page `page` of partition `partition`, in a buffer the reader
  /// owns and keeps unchanged until the reader is destroyed (or, for a
  /// reader reused across batches, until its next batch starts): a lookup
  /// holds every page it read until it returns. Returns DataLoss for a page
  /// truncated underneath the store, Internal for other I/O errors.
  class PageReader {
   public:
    virtual ~PageReader() = default;
    virtual Status Read(int partition, uint64_t page, const char** data) = 0;
  };

  /// Loads a store previously written by `PackedStoreBuilder::Build` from
  /// its manifest. Returns null and sets `error` on a missing or corrupt
  /// store.
  static std::unique_ptr<PackedObjectStore> Open(const std::string& dir,
                                                 std::string* error);

  ~PackedObjectStore();

  PackedObjectStore(const PackedObjectStore&) = delete;
  PackedObjectStore& operator=(const PackedObjectStore&) = delete;

  /// Retrieves all values under `key` with direct page reads. NotFound when
  /// absent.
  Status Get(std::string_view key, std::vector<IndexValue>* out) const;

  /// `Get` that also reports the pages touched.
  Status GetPaged(std::string_view key, std::vector<IndexValue>* out,
                  LookupInfo* info) const;

  /// Core lookup against a caller-supplied page source. `info` is always
  /// filled (NotFound still reports the pages scanned to prove absence).
  Status LookupWith(PageReader* reader, std::string_view key,
                    std::vector<IndexValue>* out, LookupInfo* info) const;

  /// Reads one raw page into `dst` (page_bytes bytes). The building block
  /// for external `PageReader`s. Retries interrupted preads; a short read
  /// (EOF inside a page the sidecar promises) is DataLoss, not Internal.
  Status ReadPage(int partition, uint64_t page, char* dst) const;

  /// CPU-side service time for a lookup returning `result_bytes` (page I/O
  /// excluded; see PackedStoreOptions::base_service_sec).
  double ServiceSeconds(uint64_t result_bytes) const {
    return options_.base_service_sec +
           options_.serve_per_byte_sec * static_cast<double>(result_bytes);
  }

  const HashPartitionScheme& scheme() const { return *scheme_; }
  const PackedStoreOptions& options() const { return options_; }
  /// Build generation, incremented by every `Build` into the same
  /// directory. Feeds `PackedStoreAccessor::VersionFingerprint`.
  uint64_t version() const { return version_; }

  uint64_t page_bytes() const { return options_.page_bytes; }
  /// Bytes of each page the object stream occupies (fill-degree capped).
  uint64_t usable_page_bytes() const { return usable_; }
  uint64_t num_objects() const;
  uint64_t num_blocks() const;
  uint64_t num_partition_blocks(int partition) const {
    return parts_[partition].num_blocks;
  }
  /// Total Elias-Fano index payload bits across partitions.
  uint64_t index_bits() const;

 private:
  struct Partition {
    uint64_t num_objects = 0;
    uint64_t num_blocks = 0;
    uint64_t num_bins = 0;
    /// Total logical object-stream bytes (end-of-stream sentinel).
    uint64_t payload_bytes = 0;
    EliasFanoSequence first_bin;
    int fd = -1;
  };

  PackedObjectStore() = default;

  PackedStoreOptions options_;
  std::unique_ptr<HashPartitionScheme> scheme_;
  uint64_t version_ = 0;
  uint64_t usable_ = 0;
  std::vector<Partition> parts_;
};

/// Bulk builder. Stages (key, value) pairs into an arena-backed RecordBatch
/// (§11: one buffer, no per-record allocations), then `Build` sorts each
/// partition by (key hash, key), merges equal keys into one object carrying
/// the values in insertion order, packs the object stream into pages, and
/// writes data files + Elias-Fano sidecars + the manifest. Rebuilding into
/// an existing directory bumps the persisted version.
class PackedStoreBuilder {
 public:
  explicit PackedStoreBuilder(PackedStoreOptions options);

  PackedStoreBuilder(const PackedStoreBuilder&) = delete;
  PackedStoreBuilder& operator=(const PackedStoreBuilder&) = delete;

  /// Stages one value under `key` (repeat keys append to the value list).
  void Add(std::string_view key, const IndexValue& value);

  /// Writes the store and opens it. Returns null and sets `error` on
  /// invalid options or I/O failure. The builder is consumed (staging area
  /// cleared) on success.
  std::unique_ptr<PackedObjectStore> Build(std::string* error);

 private:
  PackedStoreOptions options_;
  Arena arena_;
  RecordBatch staged_;
};

}  // namespace store
}  // namespace efind

#endif  // EFIND_STORE_PACKED_STORE_H_
