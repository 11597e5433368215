// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Contiguous record batch layout (DESIGN.md §11). A RecordBatch packs the
// key/value bytes of many records into one buffer with a per-record
// offset/length table, replacing `std::vector<Record>` on the shuffle hot
// path so that moving N records costs a handful of buffer growths instead
// of 2N string allocations. The per-record *logical* size (key + value +
// extra_bytes + attachment walk) is computed exactly once at append time
// and stored in the table, so downstream passes (partitioning, byte
// accounting, checksums) never re-walk attachments.
//
// A record's attachment is encoded in wire form into the buffer right after
// its value, and `MaterializeRecord` decodes a fresh one owned by the
// caller. So a batch holds no per-record heap object: whichever task or
// thread drops it frees a few buffers, never one object per record.

#ifndef EFIND_MAPREDUCE_RECORD_BATCH_H_
#define EFIND_MAPREDUCE_RECORD_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/checksum.h"
#include "common/hash.h"
#include "mapreduce/record.h"

namespace efind {

/// Absorbs one record into a streaming checksum with the canonical framing
/// (length-framed key, length-framed value, raw extra_bytes). This is THE
/// record framing: the reuse store's artifact digests, the batch content
/// checksum, and the fused shuffle partition digests all use it, so a batch
/// of records and a `std::vector<Record>` of the same content digest
/// identically. Attachments are deliberately excluded (they are in-flight
/// operator state, not record content).
inline void ChecksumRecord(Checksum64* sum, std::string_view key,
                           std::string_view value, uint64_t extra_bytes) {
  sum->UpdateFramed(key);
  sum->UpdateFramed(value);
  sum->UpdateU64(extra_bytes);
}

class RecordBatch;

/// Absorbs record `i` of a batch with the *shuffle* framing (both lengths,
/// extra bytes, then the key+value bytes as one contiguous slice). Same
/// injectivity as `ChecksumRecord` but one streaming `Update` per record;
/// used for the in-memory map→reduce partition digests, where both ends
/// hold the record in batch layout. Artifact digests keep the
/// `ChecksumRecord` framing.
inline void ChecksumBatchRecord(Checksum64* sum, const RecordBatch& batch,
                                size_t i);

/// One contiguous byte buffer plus an offset/length table.
///
/// With an `Arena`, the byte buffer and the offset table grow from the
/// arena (task-confined: the batch must not outlive the arena); without one
/// they own heap memory and the batch may cross task boundaries.
class RecordBatch {
 public:
  /// Per-record view into the batch (valid until the batch is mutated).
  struct View {
    std::string_view key;
    std::string_view value;
    uint64_t extra_bytes = 0;
    uint64_t logical_bytes = 0;
  };

  explicit RecordBatch(Arena* arena = nullptr) : arena_(arena) {}
  RecordBatch(RecordBatch&&) = default;
  RecordBatch& operator=(RecordBatch&&) = default;
  RecordBatch(const RecordBatch&) = delete;
  RecordBatch& operator=(const RecordBatch&) = delete;

  /// Pre-sizes the table and buffer (`bytes` of key+value payload).
  void Reserve(size_t records, size_t bytes);

  void Append(const Record& record) {
    Append(record.key, record.value, record.extra_bytes,
           record.attachment.get());
  }
  /// Appends one record; `attachment` (may be null) is encoded into the
  /// buffer after the value.
  void Append(std::string_view key, std::string_view value,
              uint64_t extra_bytes, const RecordAttachment* attachment) {
    Append(key, value, extra_bytes, attachment, Hash64(key));
  }
  /// Append with the key's `Hash64` already in hand (the partition sweep
  /// computes it anyway); it is stored in the entry so the reduce-side
  /// gather groups records without re-hashing key bytes.
  void Append(std::string_view key, std::string_view value,
              uint64_t extra_bytes, const RecordAttachment* attachment,
              uint64_t key_hash);
  /// Copies record `i` of `other`, attachment included (one memcpy; the
  /// precomputed logical size and key hash are carried over).
  void AppendFrom(const RecordBatch& other, size_t i);
  /// A heap-mode copy of records [from, to) (one memcpy of their bytes).
  std::shared_ptr<const RecordBatch> Slice(size_t from, size_t to) const;

  size_t size() const { return entries_size_; }
  bool empty() const { return entries_size_ == 0; }

  std::string_view KeyAt(size_t i) const {
    const Entry& e = entries_[i];
    return std::string_view(buf_ + e.key_off, e.key_len);
  }
  std::string_view ValueAt(size_t i) const {
    const Entry& e = entries_[i];
    return std::string_view(buf_ + e.key_off + e.key_len, e.value_len);
  }
  uint64_t ExtraAt(size_t i) const { return entries_[i].extra_bytes; }
  /// The record's key and value as one contiguous byte slice (they are
  /// adjacent in the buffer; the attachment follows) — lets checksums
  /// absorb the record in a single streaming pass.
  std::string_view SliceAt(size_t i) const {
    const Entry& e = entries_[i];
    return std::string_view(buf_ + e.key_off,
                            static_cast<size_t>(e.key_len) + e.value_len);
  }
  /// `Hash64` of the record's key, computed once at append time.
  uint64_t KeyHashAt(size_t i) const { return entries_[i].key_hash; }
  /// Logical record size (same value `Record::size_bytes()` would return),
  /// computed once at append time.
  uint64_t LogicalBytesAt(size_t i) const {
    return entries_[i].logical_bytes;
  }
  View at(size_t i) const;

  /// Rebuilds record `i` as an owning `Record`, decoding its attachment
  /// into a fresh one that the caller solely owns.
  Record MaterializeRecord(size_t i) const;
  /// Materializes the whole batch as owning `Record`s.
  std::vector<Record> ToRecords() const;
  static RecordBatch FromRecords(const std::vector<Record>& records,
                                 Arena* arena = nullptr);

  /// Sum of per-record logical sizes — equals summing `size_bytes()` over
  /// the materialized records, with zero attachment walks at read time.
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// Bytes resident in the buffer: keys, values and encoded attachments.
  uint64_t buffer_bytes() const { return buf_size_; }
  /// Bytes currently reserved for the buffer (heap-owned mode only; an
  /// arena-backed buffer is accounted by its arena).
  uint64_t buffer_reserved_bytes() const { return arena_ ? 0 : buf_cap_; }
  /// Heap allocation events this batch performed itself (buffer and table
  /// growths in heap mode). Arena-backed growth is counted by the arena.
  uint64_t heap_allocations() const { return heap_allocations_; }

  /// Digest of the batch content in `ChecksumRecord` framing, one
  /// sequential sweep over the buffer.
  uint64_t ContentChecksum(uint64_t seed = 0) const;
  /// Absorbs every record into `sum` in `ChecksumRecord` framing — the
  /// streaming form of `ContentChecksum`, for digests spanning splits.
  void UpdateChecksum(Checksum64* sum) const;

  /// Forgets all records; keeps buffer capacity in heap mode.
  void Clear();

 private:
  struct Entry {
    uint64_t key_off = 0;       // Buffer offset of key; value follows key.
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    uint32_t attach_len = 0;    // Encoded attachment after value; 0 if none.
    uint64_t key_hash = 0;      // Hash64(key), for the reduce-side gather.
    uint64_t extra_bytes = 0;
    uint64_t logical_bytes = 0; // Full Record::size_bytes() equivalent.
  };

  char* EnsureRoom(size_t bytes);
  /// Grows the entry table to hold at least `min_cap` entries. Arena-backed
  /// batches grow it from the arena (the abandoned table joins the bulk
  /// free), heap batches from the heap.
  void GrowEntries(size_t min_cap);
  void EnsureEntryRoom() {
    if (entries_size_ == entries_cap_) GrowEntries(entries_cap_ * 2);
  }

  Arena* arena_ = nullptr;
  char* buf_ = nullptr;
  size_t buf_size_ = 0;
  size_t buf_cap_ = 0;
  std::unique_ptr<char[]> owned_;  // Backs buf_ in heap mode.
  Entry* entries_ = nullptr;
  size_t entries_size_ = 0;
  size_t entries_cap_ = 0;
  std::unique_ptr<Entry[]> entries_owned_;  // Backs entries_ in heap mode.
  uint64_t payload_bytes_ = 0;
  uint64_t heap_allocations_ = 0;
};

inline void ChecksumBatchRecord(Checksum64* sum, const RecordBatch& batch,
                                size_t i) {
  sum->UpdateU64(batch.KeyAt(i).size());
  sum->UpdateU64(batch.ValueAt(i).size());
  sum->UpdateU64(batch.ExtraAt(i));
  sum->Update(batch.SliceAt(i));
}

}  // namespace efind

#endif  // EFIND_MAPREDUCE_RECORD_BATCH_H_
