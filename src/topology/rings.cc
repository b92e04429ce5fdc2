#include "topology/rings.h"

#include <deque>

#include "util/check.h"

namespace td {

Rings Rings::Build(const Connectivity& connectivity, NodeId base) {
  return Build(connectivity, base,
               std::vector<bool>(connectivity.num_nodes(), true));
}

Rings Rings::Build(const Connectivity& connectivity, NodeId base,
                   const std::vector<bool>& active) {
  return Build(connectivity, base, active, nullptr);
}

Rings Rings::Build(const Connectivity& connectivity, NodeId base,
                   const std::vector<bool>& active,
                   const LinkFilter& link_ok) {
  TD_CHECK_LT(base, connectivity.num_nodes());
  TD_CHECK_EQ(active.size(), connectivity.num_nodes());
  TD_CHECK(active[base]);
  Rings r;
  r.base_ = base;
  r.level_.assign(connectivity.num_nodes(), kUnreachable);
  r.level_[base] = 0;
  std::deque<NodeId> queue{base};
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : connectivity.Neighbors(v)) {
      if (r.level_[w] == kUnreachable && active[w] &&
          (!link_ok || link_ok(v, w))) {
        r.level_[w] = r.level_[v] + 1;
        queue.push_back(w);
      }
    }
  }
  r.max_level_ = 0;
  for (int lv : r.level_) r.max_level_ = std::max(r.max_level_, lv);
  r.by_level_.assign(static_cast<size_t>(r.max_level_) + 1, {});
  for (NodeId id = 0; id < r.level_.size(); ++id) {
    if (r.level_[id] >= 0) {
      r.by_level_[static_cast<size_t>(r.level_[id])].push_back(id);
    }
  }
  return r;
}

int Rings::level(NodeId id) const {
  TD_CHECK_LT(id, level_.size());
  return level_[id];
}

const std::vector<NodeId>& Rings::NodesAtLevel(int level) const {
  TD_CHECK_GE(level, 0);
  TD_CHECK_LE(level, max_level_);
  return by_level_[static_cast<size_t>(level)];
}

std::vector<NodeId> Rings::UpstreamNeighbors(const Connectivity& connectivity,
                                             NodeId id) const {
  std::vector<NodeId> up;
  UpstreamNeighbors(connectivity, id, &up);
  return up;
}

void Rings::UpstreamNeighbors(const Connectivity& connectivity, NodeId id,
                              std::vector<NodeId>* out) const {
  out->clear();
  int lv = level(id);
  if (lv <= 0) return;
  for (NodeId w : connectivity.Neighbors(id)) {
    if (level_[w] == lv - 1) out->push_back(w);
  }
}

size_t Rings::num_reachable() const {
  size_t n = 0;
  for (int lv : level_) {
    if (lv >= 0) ++n;
  }
  return n;
}

}  // namespace td
