// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deterministic batched lookup queue over a PackedObjectStore (DESIGN.md
// §13), in the PaCHash IoManager/QueryHandle mold: a caller submits many
// outstanding lookups against one handle, then flushes. The flush serves
// every lookup through one per-flush page cache, so lookups landing on the
// same pages are coalesced into one physical read each — `distinct_pages`
// (what the batch actually reads) vs `uncoalesced_pages` (what the same
// lookups would read served one at a time) is the batch-efficiency signal
// the cost model consumes.
//
// Determinism contract: a flush's outcome is a pure function of the
// submitted key multiset. Completions are delivered sorted by (partition,
// first candidate block, submit ticket) — the "out of order" completion
// order of a real io_uring-style backend, but a fixed one — so threads=1 ≡
// threads=N and batched ≡ serial stay byte-identical upstream.

#ifndef EFIND_STORE_LOOKUP_QUEUE_H_
#define EFIND_STORE_LOOKUP_QUEUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/record.h"
#include "store/packed_store.h"

namespace efind {
namespace store {

/// One submitted lookup's result.
struct LookupCompletion {
  /// Submit ticket (0-based submission index on the owning queue).
  uint64_t ticket = 0;
  bool found = false;
  /// True on an I/O / corruption error (values empty; found false).
  bool error = false;
  std::vector<IndexValue> values;
  /// Pages this lookup touches served alone (uncoalesced).
  uint64_t pages = 0;
  int partition = -1;
  uint64_t first_block = 0;
};

/// Everything a flush produced.
struct FlushOutcome {
  /// Sorted by (partition, first_block, ticket).
  std::vector<LookupCompletion> completions;
  /// Distinct (partition, page) reads the batch performed.
  uint64_t distinct_pages = 0;
  /// Sum of per-lookup pages — the serial cost of the same lookups.
  uint64_t uncoalesced_pages = 0;
};

/// A batch of outstanding lookups against one index: the protocol the
/// lookup stages drive, obtained from `BatchedLookupIndex::NewBatch`
/// (efind/index_accessor.h). Task-confined (not thread-safe).
class BatchedLookupHandle {
 public:
  virtual ~BatchedLookupHandle() = default;
  /// Enqueues a lookup of `key`; returns its ticket.
  virtual uint64_t Submit(const std::string& key) = 0;
  /// Serves everything pending in one coalesced sweep and clears the
  /// batch. The outcome is a pure function of the submitted key multiset.
  virtual FlushOutcome Flush() = 0;
};

/// Accumulates lookups and serves them in one coalesced sweep. Not
/// thread-safe; one queue belongs to one task (the store underneath is
/// shared and immutable).
class BatchedLookupQueue final : public BatchedLookupHandle {
 public:
  explicit BatchedLookupQueue(const PackedObjectStore* store)
      : store_(store) {}

  BatchedLookupQueue(const BatchedLookupQueue&) = delete;
  BatchedLookupQueue& operator=(const BatchedLookupQueue&) = delete;

  uint64_t Submit(const std::string& key) override;

  size_t pending() const { return pending_.size(); }

  /// Serves all pending lookups through a shared page cache.
  FlushOutcome Flush() override;

 private:
  const PackedObjectStore* store_;
  uint64_t next_ticket_ = 0;
  std::vector<std::pair<uint64_t, std::string>> pending_;
};

}  // namespace store
}  // namespace efind

#endif  // EFIND_STORE_LOOKUP_QUEUE_H_
