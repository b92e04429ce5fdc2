#include "net/connectivity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace td {

Connectivity Connectivity::FromRadioRange(const Deployment& deployment,
                                          double range) {
  TD_CHECK_GT(range, 0.0);
  Connectivity c(deployment.size());
  // Uniform grid of range-sized cells: a node's neighbors can only sit in
  // its own or the eight surrounding cells, so the all-pairs scan becomes
  // O(n * local density) -- the difference between seconds and hours at the
  // million-node scale the SoA core targets. The candidate test and the
  // a < b orientation are unchanged, and SortAdjacency canonicalizes the
  // lists, so the output is identical to the quadratic scan's.
  const double cell = range;
  auto cell_of = [&](double coord) {
    return static_cast<int64_t>(std::floor(coord / cell));
  };
  auto cell_key = [](int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(cx) << 32) ^
           static_cast<uint64_t>(static_cast<uint32_t>(cy));
  };
  // (cell key, node) pairs sorted: each cell's nodes are one run, in
  // ascending id order.
  std::vector<std::pair<uint64_t, NodeId>> grid;
  grid.reserve(deployment.size());
  for (NodeId a = 0; a < deployment.size(); ++a) {
    const Point& p = deployment.position(a);
    grid.emplace_back(cell_key(cell_of(p.x), cell_of(p.y)), a);
  }
  std::sort(grid.begin(), grid.end());
  // A starting capacity near the typical degree saves most of the growth
  // reallocations, which dominate set-up time at small n.
  for (auto& nbrs : c.adjacency_) nbrs.reserve(8);
  for (NodeId a = 0; a < deployment.size(); ++a) {
    const Point& pa = deployment.position(a);
    const int64_t cx = cell_of(pa.x);
    const int64_t cy = cell_of(pa.y);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const uint64_t key = cell_key(cx + dx, cy + dy);
        auto it = std::lower_bound(grid.begin(), grid.end(),
                                   std::pair<uint64_t, NodeId>(key, 0));
        for (; it != grid.end() && it->first == key; ++it) {
          const NodeId b = it->second;
          if (b <= a) continue;
          if (Distance(pa, deployment.position(b)) <= range) c.AddLink(a, b);
        }
      }
    }
  }
  c.SortAdjacency();
  return c;
}

Connectivity Connectivity::FromLinks(
    size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& links) {
  Connectivity c(num_nodes);
  for (const auto& [a, b] : links) {
    TD_CHECK_LT(a, num_nodes);
    TD_CHECK_LT(b, num_nodes);
    TD_CHECK_NE(a, b);
    c.AddLink(a, b);
  }
  c.SortAdjacency();
  return c;
}

void Connectivity::AddLink(NodeId a, NodeId b) {
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

void Connectivity::SortAdjacency() {
  for (auto& nbrs : adjacency_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
}

const std::vector<NodeId>& Connectivity::Neighbors(NodeId id) const {
  TD_CHECK_LT(id, adjacency_.size());
  return adjacency_[id];
}

bool Connectivity::AreNeighbors(NodeId a, NodeId b) const {
  const auto& nbrs = Neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

size_t Connectivity::num_links() const {
  size_t total = 0;
  for (const auto& nbrs : adjacency_) total += nbrs.size();
  return total / 2;
}

double Connectivity::AverageDegree() const {
  if (adjacency_.empty()) return 0.0;
  size_t total = 0;
  for (const auto& nbrs : adjacency_) total += nbrs.size();
  return static_cast<double>(total) / static_cast<double>(adjacency_.size());
}

bool Connectivity::IsConnected(NodeId root) const {
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<NodeId> stack{root};
  seen[root] = true;
  size_t count = 0;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId w : adjacency_[v]) {
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return count == adjacency_.size();
}

}  // namespace td
