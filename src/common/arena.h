// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Per-task bump allocator (DESIGN.md §11). A task-confined arena hands out
// pointer-bumped slices of large blocks and frees everything at once when
// the task ends, so the record hot path (shuffle staging, reduce-side
// grouping scratch) stops paying one malloc/free per record. Lifetime rule:
// memory obtained from an arena MUST NOT outlive the task that owns the
// arena — anything that crosses a task boundary (partitioned map output,
// reduce outputs, counters) owns its bytes on the heap instead.
//
// Not thread-safe by design: one arena belongs to exactly one task, and a
// task runs on exactly one strand (see stage.h threading contract).

#ifndef EFIND_COMMON_ARENA_H_
#define EFIND_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace efind {

/// Bump/arena allocator with bulk free.
///
/// Allocations are served from the current block by pointer bump; when a
/// block is exhausted a new one is acquired from the heap. Requests larger
/// than half the block size spill to a dedicated block sized exactly for
/// the request (they would otherwise strand most of a fresh block).
/// `Reset()` rewinds every normal block for reuse without returning memory
/// to the heap — the steady-state cost of a task is zero heap traffic once
/// its arena has grown to the task's working set.
class Arena {
 public:
  /// Block size used when a caller does not choose one.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes);
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `size` bytes aligned to `align` (a power of two). Never null;
  /// size 0 yields a valid unique pointer. The bytes are uninitialized.
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t));

  /// Byte-oriented convenience with no alignment requirement.
  char* AllocateBytes(size_t size) {
    return static_cast<char*>(Allocate(size, 1));
  }

  /// Copies `data` into the arena and returns the stable copy.
  char* CopyBytes(const char* data, size_t size) {
    char* out = AllocateBytes(size);
    if (size > 0) std::memcpy(out, data, size);
    return out;
  }

  /// Rewinds all normal blocks for reuse and drops spill blocks. Previously
  /// returned pointers become invalid; held heap blocks are kept so a reused
  /// arena allocates from memory it already owns.
  void Reset();

  /// Sum of bytes handed out by `Allocate` since construction (monotonic;
  /// Reset does not rewind it — it is an activity meter, not a position).
  uint64_t bytes_requested() const { return bytes_requested_; }
  /// Bytes currently reserved from the heap (blocks + spills).
  uint64_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of heap block acquisitions since construction (monotonic).
  /// This is the `efind.alloc.count` signal: the number of real heap
  /// allocations the hot path performed through this arena.
  uint64_t heap_allocations() const { return heap_allocations_; }
  /// Number of `Allocate` calls since construction (monotonic).
  uint64_t allocation_count() const { return allocation_count_; }
  size_t block_bytes() const { return block_bytes_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  /// Serves `size`/`align` from a freshly positioned block.
  void* AllocateSlow(size_t size, size_t align);

  size_t block_bytes_;
  std::vector<Block> blocks_;   // Normal bump blocks; reused across Reset.
  std::vector<Block> spills_;   // Oversized one-off blocks; freed on Reset.
  size_t current_ = 0;          // Index into blocks_ of the bump block.
  uint64_t bytes_requested_ = 0;
  uint64_t bytes_reserved_ = 0;
  uint64_t heap_allocations_ = 0;
  uint64_t allocation_count_ = 0;
};

/// Minimal arena-backed dynamic array for trivially copyable element types
/// (growth re-copies elements with memcpy and abandons the old slice to the
/// arena's bulk free). Used for per-task scratch like the reduce gather
/// index; NOT a general container — no destructors are ever run.
template <typename T>
class ArenaVector {
 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void push_back(const T& v) {
    if (size_ == capacity_) Grow(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = v;
  }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow(size_t n) {
    T* grown = static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = n;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace efind

#endif  // EFIND_COMMON_ARENA_H_
