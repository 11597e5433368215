#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace efind {
namespace {

TEST(LruCacheTest, MissOnEmpty) {
  LruCache<std::string, int> cache(4);
  int v = 0;
  EXPECT_FALSE(cache.Get("a", &v));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.probes(), 1u);
}

TEST(LruCacheTest, PutThenGet) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", 1);
  int v = 0;
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, 1);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  int v = 0;
  ASSERT_TRUE(cache.Get("a", &v));  // "a" is now most recently used.
  cache.Put("c", 3);                // Evicts "b".
  EXPECT_FALSE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_TRUE(cache.Get("c", &v));
}

TEST(LruCacheTest, PutRefreshesRecency) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("a", 10);  // Refresh "a": "b" becomes LRU.
  cache.Put("c", 3);   // Evicts "b".
  int v = 0;
  EXPECT_FALSE(cache.Get("b", &v));
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, 10);
}

TEST(LruCacheTest, CapacityNeverExceeded) {
  LruCache<int, int> cache(8);
  for (int i = 0; i < 100; ++i) {
    cache.Put(i, i);
    EXPECT_LE(cache.size(), 8u);
  }
  // The newest 8 keys must be present.
  int v = 0;
  for (int i = 92; i < 100; ++i) EXPECT_TRUE(cache.Get(i, &v));
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int, int> cache(0);
  cache.Put(1, 1);
  int v = 0;
  EXPECT_FALSE(cache.Get(1, &v));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, MissRatioTracksProbes) {
  LruCache<int, int> cache(4);
  int v = 0;
  cache.Get(1, &v);  // miss
  cache.Put(1, 1);
  cache.Get(1, &v);  // hit
  cache.Get(1, &v);  // hit
  cache.Get(2, &v);  // miss
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 0.5);
}

TEST(LruCacheTest, MissRatioOneWhenUnprobed) {
  LruCache<int, int> cache(4);
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 1.0);
}

TEST(LruCacheTest, ClearResetsEverything) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  int v = 0;
  cache.Get(1, &v);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.probes(), 0u);
  EXPECT_FALSE(cache.Get(1, &v));
}

TEST(LruCacheTest, VectorValues) {
  LruCache<std::string, std::vector<int>> cache(2);
  cache.Put("k", {1, 2, 3});
  std::vector<int> v;
  ASSERT_TRUE(cache.Get("k", &v));
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

// Sequential scan over a domain larger than the cache: every probe must
// miss (classic LRU worst case), which is what makes the paper's Synthetic
// workload cache-hostile.
TEST(LruCacheTest, SequentialScanLargerThanCapacityAlwaysMisses) {
  LruCache<int, int> cache(16);
  int v = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      EXPECT_FALSE(cache.Get(i, &v));
      cache.Put(i, i);
    }
  }
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 1.0);
}

// --- differential test against a reference LRU -----------------------------
//
// The simulated clock charges a remote lookup on every miss, so the cache's
// exact hit/miss/eviction sequence is part of `sim_seconds`. This pins it
// against the textbook list + ordered-map LRU over seeded random
// Get/Put/Clear streams.

/// Reference LRU: a recency list (front = most recently used) and an
/// ordered map from key to list position.
template <typename Key, typename Value>
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Get(const Key& key, Value* value) {
    ++probes_;
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    *value = it->second->second;
    return true;
  }

  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    probes_ = 0;
    misses_ = 0;
  }

  size_t size() const { return entries_.size(); }
  uint64_t probes() const { return probes_; }
  uint64_t misses() const { return misses_; }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> entries_;
  std::map<Key, typename std::list<std::pair<Key, Value>>::iterator> index_;
  uint64_t probes_ = 0;
  uint64_t misses_ = 0;
};

int KeyFromDraw(uint64_t draw, int) {
  // Multiples of 1024 share their low bits: identity-hashed ints whose
  // homes would collide without the cache's hash mixing.
  return static_cast<int>(draw) * 1024;
}

std::string KeyFromDraw(uint64_t draw, const std::string&) {
  // Varying lengths, some past the small-string buffer.
  return std::string(draw % 3 == 0 ? 20 : 1, 'k') + std::to_string(draw);
}

template <typename Key>
void RunDifferential(size_t capacity, uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
               std::to_string(seed));
  LruCache<Key, int64_t> cache(capacity);
  ReferenceLru<Key, int64_t> reference(capacity);
  std::mt19937_64 rng(seed);
  // A key domain about twice the capacity mixes hits, misses and
  // evictions; +3 keeps tiny caches from hitting every time.
  const uint64_t domain = 2 * capacity + 3;
  const int ops = capacity >= 1024 ? 40000 : 4000;
  for (int op = 0; op < ops; ++op) {
    const uint64_t roll = rng() % 1000;
    const Key key = KeyFromDraw(rng() % domain, Key());
    if (roll < 2) {
      cache.Clear();
      reference.Clear();
    } else if (roll < 600) {
      int64_t got = -1, want = -1;
      const bool hit = cache.Get(key, &got);
      ASSERT_EQ(hit, reference.Get(key, &want)) << "op " << op;
      if (hit) {
        ASSERT_EQ(got, want) << "op " << op;
      }
    } else {
      const int64_t value = static_cast<int64_t>(rng());
      cache.Put(key, value);
      reference.Put(key, value);
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_LE(cache.size(), capacity) << "op " << op;
    ASSERT_EQ(cache.probes(), reference.probes()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  }
}

TEST(LruCacheTest, MatchesReferenceModelIntKeys) {
  for (const size_t capacity : {0, 1, 2, 7, 1024}) {
    for (const uint64_t seed : {1, 2, 3}) {
      RunDifferential<int>(capacity, seed);
    }
  }
}

TEST(LruCacheTest, MatchesReferenceModelStringKeys) {
  for (const size_t capacity : {0, 1, 2, 7, 1024}) {
    for (const uint64_t seed : {1, 2, 3}) {
      RunDifferential<std::string>(capacity, seed);
    }
  }
}

}  // namespace
}  // namespace efind
