#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "btree/bplus_tree.h"
#include "btree/distributed_btree.h"
#include "common/random.h"

namespace efind {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(BPlusTreeDeleteTest, DeleteFromEmpty) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Delete("x").IsNotFound());
}

TEST(BPlusTreeDeleteTest, DeleteMissingKey) {
  BPlusTree tree;
  tree.Insert("a", "1").ok();
  EXPECT_TRUE(tree.Delete("b").IsNotFound());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeDeleteTest, DeleteOnlyKey) {
  BPlusTree tree;
  tree.Insert("a", "1").ok();
  ASSERT_TRUE(tree.Delete("a").ok());
  EXPECT_EQ(tree.size(), 0u);
  std::string v;
  EXPECT_TRUE(tree.Get("a", &v).IsNotFound());
  EXPECT_TRUE(tree.CheckInvariants());
  // The key can come back.
  ASSERT_TRUE(tree.Insert("a", "2").ok());
  ASSERT_TRUE(tree.Get("a", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST(BPlusTreeDeleteTest, DeleteAllCollapsesRoot) {
  BPlusTree tree(4);
  for (int i = 0; i < 200; ++i) tree.Insert(Key(i), "v").ok();
  EXPECT_GT(tree.height(), 2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Delete(Key(i)).ok()) << i;
    ASSERT_TRUE(tree.CheckInvariants()) << "after deleting " << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);  // Collapsed back to a single leaf.
}

TEST(BPlusTreeDeleteTest, ReverseOrderDeletion) {
  BPlusTree tree(4);
  for (int i = 0; i < 200; ++i) tree.Insert(Key(i), std::to_string(i)).ok();
  for (int i = 199; i >= 0; --i) {
    ASSERT_TRUE(tree.Delete(Key(i)).ok()) << i;
    ASSERT_TRUE(tree.CheckInvariants());
    // All smaller keys still reachable.
    if (i > 0) {
      std::string v;
      ASSERT_TRUE(tree.Get(Key(i - 1), &v).ok());
      EXPECT_EQ(v, std::to_string(i - 1));
    }
  }
}

TEST(BPlusTreeDeleteTest, LeafChainSurvivesMerges) {
  BPlusTree tree(4);
  for (int i = 0; i < 300; ++i) tree.Insert(Key(i), "v").ok();
  // Delete every other key: lots of borrows and merges.
  for (int i = 0; i < 300; i += 2) ASSERT_TRUE(tree.Delete(Key(i)).ok());
  std::vector<std::pair<std::string, std::string>> out;
  tree.Scan("", "", &out);
  ASSERT_EQ(out.size(), 150u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out[0].first, Key(1));
  EXPECT_EQ(out.back().first, Key(299));
}

// Property test: random interleaved inserts and deletes against std::map,
// across fanouts, with invariants and full-scan checks.
class BPlusTreeDeletePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BPlusTreeDeletePropertyTest, MatchesReferenceUnderChurn) {
  const int fanout = std::get<0>(GetParam());
  const int operations = std::get<1>(GetParam());
  BPlusTree tree(fanout);
  std::map<std::string, std::string> reference;
  Rng rng(fanout * 7919 + operations);

  for (int op = 0; op < operations; ++op) {
    const std::string key = Key(static_cast<int>(rng.Uniform(500)));
    if (rng.Uniform(100) < 55) {  // Slight insert bias so the tree grows.
      const std::string value = std::to_string(op);
      const bool fresh = reference.emplace(key, value).second;
      EXPECT_EQ(tree.Insert(key, value).ok(), fresh);
    } else {
      const bool present = reference.erase(key) > 0;
      EXPECT_EQ(tree.Delete(key).ok(), present) << key;
    }
    if (op % 64 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "op " << op;
    }
    ASSERT_EQ(tree.size(), reference.size());
  }
  ASSERT_TRUE(tree.CheckInvariants());
  // Every surviving key readable; full scan equals the reference.
  for (const auto& [k, v] : reference) {
    std::string got;
    ASSERT_TRUE(tree.Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  std::vector<std::pair<std::string, std::string>> out;
  tree.Scan("", "", &out);
  ASSERT_EQ(out.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, BPlusTreeDeletePropertyTest,
    ::testing::Combine(::testing::Values(4, 8, 32, 128),
                       ::testing::Values(2000, 10000)));

TEST(DistributedBTreeDeleteTest, DeleteThroughPartitions) {
  DistributedBTreeOptions options;
  options.num_partitions = 4;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(Key(i), "v");
  auto tree = DistributedBTree::BulkLoad(pairs, options);
  // DistributedBTree has no Delete (indices are read-only during EFind
  // jobs, paper §3.2); deletion support lives in the single-node tree.
  EXPECT_EQ(tree->size(), 1000u);
}

}  // namespace
}  // namespace efind
