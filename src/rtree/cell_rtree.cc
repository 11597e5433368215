#include "rtree/cell_rtree.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

namespace efind {

std::string EncodePoint(double x, double y) {
  char buf[72];
  std::snprintf(buf, sizeof(buf), "%.17g,%.17g", x, y);
  return buf;
}

bool DecodePoint(std::string_view key, double* x, double* y) {
  const size_t comma = key.find(',');
  if (comma == std::string_view::npos) return false;
  const std::string xs(key.substr(0, comma));
  const std::string ys(key.substr(comma + 1));
  char* end = nullptr;
  *x = std::strtod(xs.c_str(), &end);
  if (end == xs.c_str()) return false;
  *y = std::strtod(ys.c_str(), &end);
  if (end == ys.c_str()) return false;
  return true;
}

GridPartitionScheme::GridPartitionScheme(Rect bounds,
                                         const CellRTreeOptions& options)
    : bounds_(bounds),
      grid_x_(options.grid_x > 0 ? options.grid_x : 1),
      grid_y_(options.grid_y > 0 ? options.grid_y : 1),
      num_nodes_(options.num_nodes > 0 ? options.num_nodes : 1),
      replication_(options.replication > 0 ? options.replication : 1) {
  if (replication_ > num_nodes_) replication_ = num_nodes_;
}

int GridPartitionScheme::num_partitions() const { return grid_x_ * grid_y_; }

int GridPartitionScheme::CellOf(double x, double y) const {
  const double w = (bounds_.max_x - bounds_.min_x) / grid_x_;
  const double h = (bounds_.max_y - bounds_.min_y) / grid_y_;
  int cx = w > 0 ? static_cast<int>((x - bounds_.min_x) / w) : 0;
  int cy = h > 0 ? static_cast<int>((y - bounds_.min_y) / h) : 0;
  cx = std::clamp(cx, 0, grid_x_ - 1);
  cy = std::clamp(cy, 0, grid_y_ - 1);
  return cy * grid_x_ + cx;
}

Rect GridPartitionScheme::CoreRect(int c) const {
  const double w = (bounds_.max_x - bounds_.min_x) / grid_x_;
  const double h = (bounds_.max_y - bounds_.min_y) / grid_y_;
  const int cx = c % grid_x_;
  const int cy = c / grid_x_;
  return {bounds_.min_x + cx * w, bounds_.min_y + cy * h,
          bounds_.min_x + (cx + 1) * w, bounds_.min_y + (cy + 1) * h};
}

int GridPartitionScheme::PartitionOf(std::string_view key) const {
  double x = 0, y = 0;
  if (!DecodePoint(key, &x, &y)) return 0;
  return CellOf(x, y);
}

int GridPartitionScheme::HostOfPartition(int p) const {
  return p % num_nodes_;
}

bool GridPartitionScheme::NodeHostsPartition(int node, int p) const {
  for (int r = 0; r < replication_; ++r) {
    if ((p + r) % num_nodes_ == node) return true;
  }
  return false;
}

CellPartitionedRTree::CellPartitionedRTree(Rect bounds,
                                           const CellRTreeOptions& options)
    : options_(options), bounds_(bounds), scheme_(bounds, options) {
  cells_.reserve(scheme_.num_partitions());
  for (int c = 0; c < scheme_.num_partitions(); ++c) {
    cells_.push_back(std::make_unique<RStarTree>(options.max_entries));
  }
}

Rect CellPartitionedRTree::ExpandedRect(int c) const {
  Rect r = scheme_.CoreRect(c);
  r.min_x -= options_.overlap;
  r.min_y -= options_.overlap;
  r.max_x += options_.overlap;
  r.max_y += options_.overlap;
  return r;
}

void CellPartitionedRTree::Insert(const SpatialPoint& p) {
  const int home = scheme_.CellOf(p.x, p.y);
  ++size_;
  for (int c = 0; c < scheme_.num_partitions(); ++c) {
    if (c == home || ExpandedRect(c).Contains(p)) {
      cells_[c]->Insert(p);
    }
  }
}

void CellPartitionedRTree::Load(const std::vector<SpatialPoint>& points) {
  for (const auto& p : points) Insert(p);
}

std::vector<SpatialPoint> CellPartitionedRTree::KNearest(
    double x, double y, int k, int* cells_touched) const {
  const int home = scheme_.CellOf(x, y);
  std::vector<SpatialPoint> candidates = cells_[home]->KNearest(x, y, k);
  int touched = 1;

  // Radius within which the home tree is guaranteed complete: the distance
  // from the query point to the boundary of the home cell's expanded region.
  const Rect exp = ExpandedRect(home);
  const double safe = std::min(std::min(x - exp.min_x, exp.max_x - x),
                               std::min(y - exp.min_y, exp.max_y - y));
  double radius = std::numeric_limits<double>::infinity();
  if (static_cast<int>(candidates.size()) == k && !candidates.empty()) {
    const auto& last = candidates.back();
    const double dx = last.x - x, dy = last.y - y;
    radius = std::sqrt(dx * dx + dy * dy);
  }

  if (radius > safe) {
    // Widen: consult every cell whose core region intersects the candidate
    // disk (every point lives in exactly one core region). Dedupe by id.
    std::set<uint64_t> seen;
    std::vector<SpatialPoint> merged;
    for (int c = 0; c < scheme_.num_partitions(); ++c) {
      const Rect core = scheme_.CoreRect(c);
      if (std::isfinite(radius) &&
          core.MinDist2(x, y) > radius * radius) {
        continue;
      }
      if (c != home) ++touched;
      for (const auto& p : cells_[c]->KNearest(x, y, k)) {
        if (seen.insert(p.id).second) merged.push_back(p);
      }
    }
    auto dist2 = [&](const SpatialPoint& p) {
      const double dx = p.x - x, dy = p.y - y;
      return dx * dx + dy * dy;
    };
    std::sort(merged.begin(), merged.end(),
              [&](const SpatialPoint& a, const SpatialPoint& b) {
                const double da = dist2(a), db = dist2(b);
                if (da != db) return da < db;
                return a.id < b.id;
              });
    if (static_cast<int>(merged.size()) > k) merged.resize(k);
    candidates = std::move(merged);
  }
  if (cells_touched != nullptr) *cells_touched = touched;
  return candidates;
}

size_t CellPartitionedRTree::CellSize(int c) const {
  if (c < 0 || c >= static_cast<int>(cells_.size())) return 0;
  return cells_[c]->size();
}

}  // namespace efind
