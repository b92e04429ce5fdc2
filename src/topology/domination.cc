#include "topology/domination.h"

#include <cmath>

#include "util/check.h"

namespace td {

double HeightHistogram::CumulativeFraction(int i) const {
  TD_CHECK_GT(total, 0u);
  size_t acc = 0;
  int hi = std::min(i, max_height());
  for (int j = 1; j <= hi; ++j) acc += count[static_cast<size_t>(j)];
  return static_cast<double>(acc) / static_cast<double>(total);
}

HeightHistogram ComputeHeightHistogram(const Tree& tree, bool exclude_root) {
  std::vector<int> heights = tree.ComputeHeights();
  HeightHistogram hist;
  int max_h = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.InTree(id)) continue;
    if (exclude_root && id == tree.root()) continue;
    max_h = std::max(max_h, heights[id]);
  }
  hist.count.assign(static_cast<size_t>(max_h) + 1, 0);
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.InTree(id)) continue;
    if (exclude_root && id == tree.root()) continue;
    ++hist.count[static_cast<size_t>(heights[id])];
    ++hist.total;
  }
  return hist;
}

HeightHistogram HistogramFromCounts(const std::vector<size_t>& h) {
  HeightHistogram hist;
  hist.count.assign(h.size() + 1, 0);
  for (size_t j = 0; j < h.size(); ++j) {
    hist.count[j + 1] = h[j];
    hist.total += h[j];
  }
  return hist;
}

bool IsDDominating(const HeightHistogram& hist, double d) {
  TD_CHECK_GE(d, 1.0);
  if (hist.total == 0) return true;
  if (d == 1.0) return true;  // threshold is 0 for every i
  for (int i = 1; i <= hist.max_height(); ++i) {
    double threshold = 1.0 - std::pow(d, -static_cast<double>(i));
    if (hist.CumulativeFraction(i) + 1e-12 < threshold) return false;
  }
  return true;
}

double DominationFactor(const HeightHistogram& hist, double granularity,
                        double d_max) {
  TD_CHECK_GT(granularity, 0.0);
  // Index the grid multiplicatively so accumulated floating-point error
  // cannot shave a grid point (d = 4.0 must be exactly 4.0).
  auto grid = [granularity](int k) { return 1.0 + granularity * k; };
  int last = 0;  // the largest grid index within d_max
  while (grid(last + 1) <= d_max + 1e-9) ++last;
  // The condition is monotone in d (larger d is stricter, and grid points
  // lie far more than a rounding error apart), so bisect for the last
  // passing grid point. d = 1 always passes.
  int pass = 0;
  int fail = last + 1;
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    if (IsDDominating(hist, grid(mid))) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return grid(pass);
}

bool SatisfiesLemma2(const Tree& tree, int d) {
  std::vector<int> heights = tree.ComputeHeights();
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    if (!tree.InTree(v) || v == tree.root()) continue;
    if (tree.children(v).empty()) continue;  // leaf
    int need = heights[v] - 1;
    int have = 0;
    for (NodeId c : tree.children(v)) {
      if (heights[c] == need) ++have;
    }
    if (have < d) return false;
  }
  return true;
}

}  // namespace td
