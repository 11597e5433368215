// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests for the skew detector and the salting partitioner
// (DESIGN.md §12): hot-key flagging against the share threshold and the
// uniform guard, merge order-independence, and the deterministic
// round-robin salt assignment that spreads a hot key across sub-partitions
// while leaving cold keys exactly where HashPartitioner puts them. A
// reference test checks the detector's exact counts against a std::map
// over adversarial hash streams merged across tasks.

#include "mapreduce/skew_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "mapreduce/partitioner.h"

namespace efind {
namespace {

TEST(SkewDetectorTest, FlagsHeavyHitterAboveThreshold) {
  SkewDetector det;
  const uint64_t hot = Hash64("hot");
  // 200 of 1200 observations (~17%) on one key, the rest spread over 1000
  // distinct cold keys.
  for (int i = 0; i < 200; ++i) det.Observe(hot);
  for (int i = 0; i < 1000; ++i) {
    det.Observe(Hash64("cold" + std::to_string(i)));
  }
  const auto hot_keys = det.HotKeys(/*threshold=*/0.05);
  ASSERT_EQ(hot_keys.size(), 1u);
  EXPECT_EQ(hot_keys[0].hash, hot);
  EXPECT_EQ(hot_keys[0].count, 200u);
  EXPECT_NEAR(det.MaxShare(), 200.0 / 1200.0, 1e-12);
}

TEST(SkewDetectorTest, UniformStreamFlagsNothing) {
  SkewDetector det;
  for (int i = 0; i < 5000; ++i) {
    det.Observe(Hash64("k" + std::to_string(i % 500)));
  }
  // Every key holds 1/500 of the stream — far below the 5% gate.
  EXPECT_TRUE(det.HotKeys(0.05).empty());
}

TEST(SkewDetectorTest, UniformGuardBlocksTinyDomains) {
  // 3 keys at ~33% each: each clears a naive 5% threshold, but the uniform
  // guard (4 / estimated-distinct) recognizes the shares as the natural
  // uniform share of a tiny domain, not skew.
  SkewDetector det;
  for (int i = 0; i < 300; ++i) {
    det.Observe(Hash64("k" + std::to_string(i % 3)));
  }
  EXPECT_TRUE(det.HotKeys(0.05).empty());
}

TEST(SkewDetectorTest, MergeIsOrderIndependent) {
  SkewDetector a, b, c;
  for (int i = 0; i < 90; ++i) a.Observe(Hash64("hot"));
  for (int i = 0; i < 200; ++i) {
    b.Observe(Hash64("x" + std::to_string(i)));
    c.Observe(Hash64("y" + std::to_string(i)));
  }
  for (int i = 0; i < 60; ++i) c.Observe(Hash64("hot"));

  SkewDetector ab = a;
  ab.Merge(b);
  ab.Merge(c);
  SkewDetector cb = c;
  cb.Merge(b);
  cb.Merge(a);

  const auto h1 = ab.HotKeys(0.05);
  const auto h2 = cb.HotKeys(0.05);
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1[i].hash, h2[i].hash);
    EXPECT_EQ(h1[i].count, h2[i].count);
  }
  ASSERT_EQ(h1.size(), 1u);
  EXPECT_EQ(h1[0].hash, Hash64("hot"));
  EXPECT_EQ(h1[0].count, 150u);
}

// ---------------------------------------------------------------------------
// Reference check: per-task detectors merged in task order must report the
// same total, max share and hot set as exact std::map counts of the same
// streams. The hot-set reference restates the documented rule: share >=
// max(threshold, min(1, 4 / distinct)), hottest first, ties by hash,
// truncated to `max_keys`.

using Stream = std::vector<uint64_t>;

struct Reference {
  std::map<uint64_t, uint64_t> counts;
  uint64_t total = 0;

  void Add(const Stream& s) {
    for (uint64_t h : s) {
      ++counts[h];
      ++total;
    }
  }

  double MaxShare() const {
    if (total == 0) return 0.0;
    uint64_t max_count = 0;
    for (const auto& [h, c] : counts) max_count = std::max(max_count, c);
    return static_cast<double>(max_count) / static_cast<double>(total);
  }

  std::vector<SkewDetector::HotKey> HotKeys(double threshold,
                                            size_t max_keys) const {
    std::vector<SkewDetector::HotKey> hot;
    if (total == 0 || threshold <= 0.0) return hot;
    const double distinct = std::max<double>(1.0, counts.size());
    const double min_share = std::max(threshold, std::min(1.0, 4.0 / distinct));
    for (const auto& [h, c] : counts) {
      if (static_cast<double>(c) / static_cast<double>(total) >= min_share) {
        hot.push_back({h, c});
      }
    }
    std::stable_sort(hot.begin(), hot.end(),
                     [](const SkewDetector::HotKey& a,
                        const SkewDetector::HotKey& b) {
                       return a.count > b.count;
                     });
    if (hot.size() > max_keys) hot.resize(max_keys);
    return hot;
  }
};

void ExpectMatchesReference(const std::vector<Stream>& tasks,
                            const std::string& label) {
  SCOPED_TRACE(label);
  SkewDetector merged;
  Reference ref;
  for (const Stream& s : tasks) {
    SkewDetector task;
    for (uint64_t h : s) task.Observe(h);
    merged.Merge(task);
    ref.Add(s);
  }
  EXPECT_EQ(merged.total(), ref.total);
  EXPECT_EQ(merged.MaxShare(), ref.MaxShare());
  for (double threshold : {0.01, 0.05, 0.2}) {
    for (size_t max_keys : {size_t{1}, size_t{64}}) {
      const auto got = merged.HotKeys(threshold, max_keys);
      const auto want = ref.HotKeys(threshold, max_keys);
      ASSERT_EQ(got.size(), want.size())
          << "threshold=" << threshold << " max_keys=" << max_keys;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].hash, want[i].hash) << "rank " << i;
        EXPECT_EQ(got[i].count, want[i].count) << "rank " << i;
      }
    }
  }
}

TEST(SkewDetectorTest, MatchesExactReferenceOnAdversarialStreams) {
  Rng rng(20260417);
  // Skewed random streams over a small domain, with hash 0 and a few
  // hashes that share all of their low 32 bits mixed in as hot keys.
  std::vector<Stream> mixed(7);
  for (size_t t = 0; t < mixed.size(); ++t) {
    for (int i = 0; i < 400; ++i) {
      const uint64_t u = rng.Uniform(100);
      if (u < 12) {
        mixed[t].push_back(0);
      } else if (u < 20) {
        mixed[t].push_back((rng.Uniform(3) + 1) << 32);
      } else {
        mixed[t].push_back(Hash64("k" + std::to_string(rng.Uniform(150))));
      }
    }
  }
  ExpectMatchesReference(mixed, "mixed");

  // Hashes equal in their low 48 bits (and in their high bits, in the
  // second family): a table homed on either end of the hash sees long
  // collision runs that wrap around its end.
  std::vector<Stream> low_collide(3);
  for (uint64_t i = 0; i < 300; ++i) {
    low_collide[i % 3].push_back((i << 48) | 0x5a5a);
    low_collide[(i + 1) % 3].push_back(i);
    if (i % 7 == 0) low_collide[0].push_back(uint64_t{1} << 63);
  }
  ExpectMatchesReference(low_collide, "low_collide");

  // Many distinct keys in one task, enough to cross several growth steps,
  // plus a light second task whose keys overlap the first.
  std::vector<Stream> growth(2);
  for (uint64_t i = 0; i < 20000; ++i) {
    growth[0].push_back(Hash64(std::to_string(i % 5000)));
    if (i % 3 == 0) growth[1].push_back(Hash64(std::to_string(i % 17)));
  }
  ExpectMatchesReference(growth, "growth");

  // One key only (every threshold flags it) and all-distinct keys
  // (nothing is hot, the max share is 1/n).
  ExpectMatchesReference({Stream(500, 0), Stream(250, 0)}, "single_zero");
  ExpectMatchesReference({Stream(40, Hash64("solo"))}, "single");
  std::vector<Stream> distinct(4);
  for (uint64_t i = 0; i < 4000; ++i) distinct[i % 4].push_back(i * 0x10001);
  ExpectMatchesReference(distinct, "all_distinct");
  ExpectMatchesReference({Stream(), Stream()}, "empty");
}

TEST(SaltingPartitionerTest, ColdKeysMatchHashPartitioner) {
  SaltingPartitioner salting({Hash64("hot")}, /*fanout=*/4);
  SaltCycler cycler;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "cold" + std::to_string(i);
    const uint64_t h = Hash64(key);
    EXPECT_EQ(salting.PartitionHash(h, &cycler, 48),
              HashPartitioner::FromHash(h, 48));
  }
}

TEST(SaltingPartitionerTest, HotKeySpreadsRoundRobinOverFanout) {
  const uint64_t hot = Hash64("hot");
  SaltingPartitioner salting({hot}, /*fanout=*/4);
  SaltCycler cycler;
  std::vector<int> first_cycle;
  for (int i = 0; i < 4; ++i) {
    first_cycle.push_back(salting.PartitionHash(hot, &cycler, 48));
  }
  // The salt cycles 0..fanout-1, so the next fanout records repeat the
  // exact same partition sequence.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(salting.PartitionHash(hot, &cycler, 48), first_cycle[i]);
  }
  // The fanout sub-partitions are distinct for this (key, num_partitions).
  std::vector<int> sorted = first_cycle;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GE(sorted.size(), 2u) << "salting failed to spread the hot key";
}

TEST(SaltingPartitionerTest, CyclerStateIsPerKey) {
  const uint64_t hot_a = Hash64("a");
  const uint64_t hot_b = Hash64("b");
  SaltingPartitioner salting({hot_a, hot_b}, /*fanout=*/3);
  SaltCycler lone;
  const int a0 = salting.PartitionHash(hot_a, &lone, 48);
  SaltCycler interleaved;
  // Interleaving another hot key must not advance a's cycle.
  salting.PartitionHash(hot_b, &interleaved, 48);
  EXPECT_EQ(salting.PartitionHash(hot_a, &interleaved, 48), a0);
}

TEST(SaltingPartitionerTest, StatelessInterfaceIsDeterministic) {
  const uint64_t hot = Hash64("hot");
  SaltingPartitioner salting({hot}, /*fanout=*/4);
  // The Partitioner-interface entry point (no cycler) pins salt 0.
  EXPECT_EQ(salting.Partition("hot", 48),
            SaltingPartitioner::Salted(hot, 0, 48));
  EXPECT_EQ(salting.Partition("cold", 48),
            HashPartitioner::FromHash(Hash64("cold"), 48));
}

}  // namespace
}  // namespace efind
