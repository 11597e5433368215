#include "rtree/cell_rtree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "workloads/osm.h"

namespace efind {
namespace {

TEST(EncodePointTest, RoundTrip) {
  const std::string key = EncodePoint(-122.41941499999999, 37.7749);
  double x = 0, y = 0;
  ASSERT_TRUE(DecodePoint(key, &x, &y));
  EXPECT_DOUBLE_EQ(x, -122.41941499999999);
  EXPECT_DOUBLE_EQ(y, 37.7749);
}

TEST(EncodePointTest, MalformedRejected) {
  double x, y;
  EXPECT_FALSE(DecodePoint("nonsense", &x, &y));
  EXPECT_FALSE(DecodePoint("1.0;2.0", &x, &y));
  EXPECT_FALSE(DecodePoint("abc,1.0", &x, &y));
}

CellRTreeOptions TestOptions() {
  CellRTreeOptions o;
  o.grid_x = 4;
  o.grid_y = 8;
  o.overlap = 2.0;
  o.num_nodes = 12;
  return o;
}

TEST(GridPartitionSchemeTest, CellsTileTheSpace) {
  const Rect bounds{0, 0, 40, 80};
  GridPartitionScheme scheme(bounds, TestOptions());
  EXPECT_EQ(scheme.num_partitions(), 32);
  // Every interior point maps to the cell whose core rect contains it.
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 40;
    const double y = rng.NextDouble() * 80;
    const int c = scheme.CellOf(x, y);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 32);
    const Rect core = scheme.CoreRect(c);
    EXPECT_TRUE(core.Contains({x, y, 0}));
  }
}

TEST(GridPartitionSchemeTest, PartitionOfParsesKeys) {
  const Rect bounds{0, 0, 40, 80};
  GridPartitionScheme scheme(bounds, TestOptions());
  EXPECT_EQ(scheme.PartitionOf(EncodePoint(5, 5)), scheme.CellOf(5, 5));
  EXPECT_EQ(scheme.PartitionOf(EncodePoint(39, 79)), scheme.CellOf(39, 79));
}

TEST(GridPartitionSchemeTest, OutOfBoundsClamped) {
  const Rect bounds{0, 0, 40, 80};
  GridPartitionScheme scheme(bounds, TestOptions());
  EXPECT_EQ(scheme.CellOf(-5, -5), scheme.CellOf(0.1, 0.1));
  EXPECT_EQ(scheme.CellOf(500, 500), scheme.CellOf(39.9, 79.9));
}

TEST(CellPartitionedRTreeTest, InsertDuplicatesIntoOverlapRegions) {
  const Rect bounds{0, 0, 40, 80};
  CellPartitionedRTree index(bounds, TestOptions());
  // A point right at a vertical cell border (x = 10) lands in two trees.
  index.Insert({10.5, 5, 1});
  size_t total = 0;
  for (int c = 0; c < 32; ++c) total += index.CellSize(c);
  EXPECT_GE(total, 2u);
  EXPECT_EQ(index.size(), 1u);  // Logical size counts the point once.
}

// The core guarantee: exact kNN regardless of cell boundaries.
class CellRTreeExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CellRTreeExactnessTest, MatchesBruteForce) {
  const int k = GetParam();
  const Rect bounds{0, 0, 40, 80};
  CellRTreeOptions options = TestOptions();
  options.overlap = 1.0;
  CellPartitionedRTree index(bounds, options);
  Rng rng(k * 7 + 1);
  std::vector<SpatialPoint> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back({rng.NextDouble() * 40, rng.NextDouble() * 80,
                      static_cast<uint64_t>(i)});
  }
  index.Load(points);
  for (int q = 0; q < 60; ++q) {
    const double x = rng.NextDouble() * 40;
    const double y = rng.NextDouble() * 80;
    const auto got = index.KNearest(x, y, k);
    const auto want = BruteForceKnn(points, x, y, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, CellRTreeExactnessTest,
                         ::testing::Values(1, 5, 10, 50));

TEST(CellPartitionedRTreeTest, MostQueriesTouchOneCell) {
  const Rect bounds{0, 0, 40, 80};
  CellRTreeOptions options = TestOptions();
  options.overlap = 3.0;  // Generous margin.
  CellPartitionedRTree index(bounds, options);
  Rng rng(11);
  std::vector<SpatialPoint> points;
  for (int i = 0; i < 20000; ++i) {
    points.push_back({rng.NextDouble() * 40, rng.NextDouble() * 80,
                      static_cast<uint64_t>(i)});
  }
  index.Load(points);
  int single_cell = 0;
  const int queries = 100;
  for (int q = 0; q < queries; ++q) {
    int cells_touched = 0;
    index.KNearest(rng.NextDouble() * 40, rng.NextDouble() * 80, 10,
                   &cells_touched);
    if (cells_touched == 1) ++single_cell;
  }
  // The overlap margin exists exactly so the common case is one tree.
  EXPECT_GT(single_cell, queries * 3 / 4);
}

TEST(CellPartitionedRTreeTest, ServiceTimeGrowsWithResultBytes) {
  const Rect bounds{0, 0, 40, 80};
  CellPartitionedRTree index(bounds, TestOptions());
  EXPECT_GT(index.ServiceSeconds(10000), index.ServiceSeconds(0));
}

}  // namespace
}  // namespace efind
