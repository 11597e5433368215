// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_RTREE_CELL_RTREE_H_
#define EFIND_RTREE_CELL_RTREE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/partition_scheme.h"
#include "rtree/rstar_tree.h"

namespace efind {

/// Serializes a query point as an index key ("x,y" with full precision).
std::string EncodePoint(double x, double y);
/// Parses a key produced by `EncodePoint`. Returns false on malformed input.
bool DecodePoint(std::string_view key, double* x, double* y);

/// Tunables for a `CellPartitionedRTree`.
struct CellRTreeOptions {
  /// Grid dimensions (paper: "We partition the US map into 4x8 cells").
  int grid_x = 4;
  int grid_y = 8;
  /// Overlap margin added around each cell's core region, in coordinate
  /// units (paper: "with small overlapping regions"), so most kNN queries
  /// are answered by a single cell.
  double overlap = 0.02;
  int num_nodes = 12;
  /// Replicas per cell tree (paper: "Each R*tree is replicated to 3
  /// machines").
  int replication = 3;
  /// R*-tree node capacity.
  int max_entries = 32;
  /// Fixed server time per kNN lookup (tree descent).
  double base_service_sec = 150e-6;
  /// Server time per result byte.
  double serve_per_byte_sec = 5e-9;
};

/// Partition scheme for the cell grid: keys are encoded query points, the
/// partition is the grid cell containing the point.
class GridPartitionScheme : public PartitionScheme {
 public:
  GridPartitionScheme(Rect bounds, const CellRTreeOptions& options);

  int num_partitions() const override;
  int PartitionOf(std::string_view key) const override;
  int HostOfPartition(int p) const override;
  bool NodeHostsPartition(int node, int p) const override;

  /// Grid cell of a raw coordinate (clamped into the grid).
  int CellOf(double x, double y) const;
  /// Core (non-overlapping) rectangle of cell `c`.
  Rect CoreRect(int c) const;

 private:
  Rect bounds_;
  int grid_x_;
  int grid_y_;
  int num_nodes_;
  int replication_;
};

/// The paper's OSM index: a grid of R*-trees with overlapping cell regions,
/// replicated across nodes, supporting exact k-nearest-neighbor search.
///
/// Queries are answered from the home cell's tree; when the k-th candidate
/// distance exceeds the cell's expanded region (so closer points could live
/// in other cells), the search widens to every cell whose core region
/// intersects the candidate disk and merges, which keeps results exact while
/// the common case touches one tree.
class CellPartitionedRTree {
 public:
  CellPartitionedRTree(Rect bounds, const CellRTreeOptions& options);

  CellPartitionedRTree(const CellPartitionedRTree&) = delete;
  CellPartitionedRTree& operator=(const CellPartitionedRTree&) = delete;

  /// Inserts `p` into its core cell's tree and into any neighbor cell whose
  /// expanded (core + overlap) region contains it.
  void Insert(const SpatialPoint& p);
  /// Bulk insert.
  void Load(const std::vector<SpatialPoint>& points);

  /// Exact k nearest neighbors of (x, y), closest first. When
  /// `cells_touched` is non-null it receives the number of cell trees the
  /// query consulted (1 in the common case), which exposes the
  /// effectiveness of the overlap margin. Thread-safe: writes nothing.
  std::vector<SpatialPoint> KNearest(double x, double y, int k,
                                     int* cells_touched = nullptr) const;

  /// Server-side service time for a kNN lookup returning `result_bytes`.
  double ServiceSeconds(uint64_t result_bytes) const {
    return options_.base_service_sec +
           options_.serve_per_byte_sec * static_cast<double>(result_bytes);
  }

  const GridPartitionScheme& scheme() const { return scheme_; }
  /// Total points across core cells (duplicated overlap copies excluded).
  size_t size() const { return size_; }
  size_t CellSize(int c) const;

 private:
  Rect ExpandedRect(int c) const;

  CellRTreeOptions options_;
  Rect bounds_;
  GridPartitionScheme scheme_;
  std::vector<std::unique_ptr<RStarTree>> cells_;
  size_t size_ = 0;
};

}  // namespace efind

#endif  // EFIND_RTREE_CELL_RTREE_H_
