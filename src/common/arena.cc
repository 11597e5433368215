// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/arena.h"

namespace efind {

Arena::Arena(size_t block_bytes) : block_bytes_(block_bytes) {}

void* Arena::Allocate(size_t size, size_t align) {
  ++allocation_count_;
  bytes_requested_ += size;
  if (size + align <= block_bytes_ / 2 && current_ < blocks_.size()) {
    Block& b = blocks_[current_];
    const auto base = reinterpret_cast<uintptr_t>(b.data.get());
    const size_t aligned = ((base + b.used + align - 1) & ~(align - 1)) - base;
    if (aligned + size <= b.size) {
      b.used = aligned + size;
      return b.data.get() + aligned;
    }
  }
  return AllocateSlow(size, align);
}

void* Arena::AllocateSlow(size_t size, size_t align) {
  // Oversized requests get a dedicated spill block; carving them out of the
  // bump block (or a fresh one) would strand most of it.
  if (size + align > block_bytes_ / 2) {
    Block spill;
    spill.size = size + align;
    spill.data = std::make_unique_for_overwrite<char[]>(spill.size);
    ++heap_allocations_;
    bytes_reserved_ += spill.size;
    char* base = spill.data.get();
    auto addr = reinterpret_cast<uintptr_t>(base);
    const size_t adjust = (align - (addr & (align - 1))) & (align - 1);
    spill.used = adjust + size;
    spills_.push_back(std::move(spill));
    return base + adjust;
  }
  // Advance to the next retained block (after Reset) or grow a new one.
  if (current_ < blocks_.size()) ++current_;
  if (current_ >= blocks_.size()) {
    Block b;
    b.size = block_bytes_;
    b.data = std::make_unique_for_overwrite<char[]>(b.size);
    ++heap_allocations_;
    bytes_reserved_ += b.size;
    blocks_.push_back(std::move(b));
  }
  Block& b = blocks_[current_];
  char* base = b.data.get();
  auto addr = reinterpret_cast<uintptr_t>(base);
  const size_t adjust = (align - (addr & (align - 1))) & (align - 1);
  b.used = adjust + size;
  return base + adjust;
}

void Arena::Reset() {
  for (Block& b : blocks_) b.used = 0;
  for (const Block& s : spills_) bytes_reserved_ -= s.size;
  spills_.clear();
  current_ = 0;
}

}  // namespace efind
