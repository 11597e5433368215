#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace efind {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(4096);
  std::vector<std::pair<char*, size_t>> slices;
  for (size_t align : {1, 2, 4, 8, 16, 64}) {
    for (size_t size : {1, 3, 7, 24, 100}) {
      char* p = static_cast<char*>(arena.Allocate(size, align));
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align " << align << " size " << size;
      std::memset(p, 0xAB, size);
      slices.push_back({p, size});
    }
  }
  // No two live slices overlap.
  for (size_t i = 0; i < slices.size(); ++i) {
    for (size_t j = i + 1; j < slices.size(); ++j) {
      char* a = slices[i].first;
      char* b = slices[j].first;
      EXPECT_TRUE(a + slices[i].second <= b || b + slices[j].second <= a);
    }
  }
}

TEST(ArenaTest, DefaultAlignmentSuitsAnyObject) {
  Arena arena;
  for (int i = 0; i < 10; ++i) {
    void* p = arena.Allocate(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(ArenaTest, ResetReusesBlocksWithoutNewHeapTraffic) {
  Arena arena(4096);
  for (int i = 0; i < 100; ++i) arena.AllocateBytes(100);
  const uint64_t heap_after_warmup = arena.heap_allocations();
  const uint64_t reserved = arena.bytes_reserved();
  EXPECT_GT(heap_after_warmup, 0u);

  // Steady state: the same allocation pattern after Reset is served
  // entirely from retained blocks.
  for (int round = 0; round < 5; ++round) {
    arena.Reset();
    for (int i = 0; i < 100; ++i) arena.AllocateBytes(100);
  }
  EXPECT_EQ(arena.heap_allocations(), heap_after_warmup);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, ResetRecyclesAddresses) {
  Arena arena(4096);
  char* first = arena.AllocateBytes(64);
  arena.Reset();
  char* again = arena.AllocateBytes(64);
  EXPECT_EQ(first, again);
}

TEST(ArenaTest, LargeObjectSpillsToDedicatedBlock) {
  Arena arena(4096);
  char* small = arena.AllocateBytes(16);
  // Larger than half a block: must not consume the bump block.
  char* big = arena.AllocateBytes(3000);
  char* small2 = arena.AllocateBytes(16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5C, 3000);
  // The bump block kept serving small allocations contiguously around the
  // spill.
  EXPECT_EQ(small2, small + 16);
  // Spill memory is returned to the heap on Reset; normal blocks are kept.
  const uint64_t reserved_with_spill = arena.bytes_reserved();
  arena.Reset();
  EXPECT_LT(arena.bytes_reserved(), reserved_with_spill);
}

TEST(ArenaTest, OversizedRequestLargerThanBlockWorks) {
  Arena arena(4096);
  char* huge = arena.AllocateBytes(1 << 20);
  ASSERT_NE(huge, nullptr);
  std::memset(huge, 0x11, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), 1u << 20);
}

TEST(ArenaTest, StatsTrackRequestsAndReservations) {
  Arena arena(4096);
  EXPECT_EQ(arena.allocation_count(), 0u);
  EXPECT_EQ(arena.bytes_requested(), 0u);
  arena.AllocateBytes(10);
  arena.AllocateBytes(20);
  EXPECT_EQ(arena.allocation_count(), 2u);
  EXPECT_EQ(arena.bytes_requested(), 30u);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
  // Counters are monotonic across Reset (activity meters, not positions).
  arena.Reset();
  EXPECT_EQ(arena.allocation_count(), 2u);
  EXPECT_EQ(arena.bytes_requested(), 30u);
}

TEST(ArenaTest, CopyBytesRoundTrips) {
  Arena arena;
  const std::string payload = "the quick brown fox";
  char* copy = arena.CopyBytes(payload.data(), payload.size());
  EXPECT_EQ(std::string(copy, payload.size()), payload);
}

TEST(ArenaTest, DefaultBlockIs64KiB) {
  EXPECT_EQ(Arena().block_bytes(), 64u * 1024);
  EXPECT_EQ(Arena(8192).block_bytes(), 8192u);
}

TEST(ArenaVectorTest, GrowsAndPreservesContents) {
  Arena arena(4096);
  ArenaVector<uint32_t> v(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
}

}  // namespace
}  // namespace efind
