#include "td/region_state.h"

#include "util/check.h"

namespace td {

RegionState::RegionState(const Tree* tree, const Rings* rings)
    : tree_(tree), rings_(rings) {
  TD_CHECK(tree != nullptr);
  TD_CHECK(rings != nullptr);
  TD_CHECK_EQ(tree->num_nodes(), rings->num_nodes());
  TD_CHECK_EQ(tree->root(), rings->base());

  // Section 4.1: all tree links must be ring links going one level up, so
  // switching a node between modes never requires re-synchronizing epochs.
  for (NodeId v = 0; v < tree->num_nodes(); ++v) {
    NodeId p = tree->parent(v);
    if (p == kNoParent) continue;
    TD_CHECK_EQ(rings->level(v), rings->level(p) + 1);
  }

  mode_.assign(tree->num_nodes(), Mode::kTree);
  mode_[tree->root()] = Mode::kMultipath;
  delta_size_ = 1;
  num_active_ = tree->num_in_tree();
}

Mode RegionState::mode(NodeId id) const {
  TD_CHECK_LT(id, mode_.size());
  return mode_[id];
}

bool RegionState::IsSwitchableT(NodeId id) const {
  if (!tree_->InTree(id) || !IsT(id)) return false;
  NodeId p = tree_->parent(id);
  return p == kNoParent || IsM(p);
}

bool RegionState::IsSwitchableM(NodeId id) const {
  if (id == tree_->root()) return false;
  return IsFrontierM(id);
}

bool RegionState::IsFrontierM(NodeId id) const {
  if (!tree_->InTree(id) || !IsM(id)) return false;
  for (NodeId c : tree_->children(id)) {
    if (IsM(c)) return false;
  }
  return true;
}

std::vector<NodeId> RegionState::SwitchableTs() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (IsSwitchableT(v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> RegionState::SwitchableMs() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (IsSwitchableM(v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> RegionState::FrontierMs() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (IsFrontierM(v)) out.push_back(v);
  }
  return out;
}

void RegionState::SwitchToM(NodeId id) {
  TD_CHECK(IsSwitchableT(id));
  mode_[id] = Mode::kMultipath;
  ++delta_size_;
  TD_DCHECK(CheckInvariants());
}

void RegionState::SwitchToT(NodeId id) {
  TD_CHECK(IsSwitchableM(id));
  mode_[id] = Mode::kTree;
  --delta_size_;
  TD_DCHECK(CheckInvariants());
}

size_t RegionState::ExpandAll() {
  std::vector<NodeId> ts = SwitchableTs();
  for (NodeId v : ts) {
    mode_[v] = Mode::kMultipath;
  }
  delta_size_ += ts.size();
  TD_DCHECK(CheckInvariants());
  return ts.size();
}

size_t RegionState::ShrinkAll() {
  std::vector<NodeId> ms = SwitchableMs();
  for (NodeId v : ms) {
    mode_[v] = Mode::kTree;
  }
  delta_size_ -= ms.size();
  TD_DCHECK(CheckInvariants());
  return ms.size();
}

void RegionState::LabelAll(Mode mode) {
  const NodeId root = tree_->root();
  delta_size_ = 0;
  num_active_ = 0;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    const bool in_tree = tree_->InTree(v);
    const bool m = v == root || (mode == Mode::kMultipath && in_tree);
    mode_[v] = m ? Mode::kMultipath : Mode::kTree;
    delta_size_ += m;
    num_active_ += in_tree;
  }
  TD_DCHECK(CheckInvariants());
}

void RegionState::Resync() {
  const NodeId root = tree_->root();
  // The repaired tree must still satisfy the synchronization constraint;
  // anything else means the repair path is broken, not the region.
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (v == root || !tree_->InTree(v)) continue;
    NodeId p = tree_->parent(v);
    TD_CHECK(p != kNoParent);
    TD_CHECK_EQ(rings_->level(v), rings_->level(p) + 1);
  }

  mode_[root] = Mode::kMultipath;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (v != root && !tree_->InTree(v)) mode_[v] = Mode::kTree;
  }
  // Crown fix, parents first: ring levels ascend exactly parent-to-child
  // for in-tree nodes, so one sweep demotes every M vertex whose (possibly
  // new) parent is T, and the demotions cascade to its children in turn.
  for (int level = 1; level <= rings_->max_level(); ++level) {
    for (NodeId v : rings_->NodesAtLevel(level)) {
      if (!tree_->InTree(v)) continue;
      if (IsM(v) && !IsM(tree_->parent(v))) mode_[v] = Mode::kTree;
    }
  }

  delta_size_ = 0;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (tree_->InTree(v) && IsM(v)) ++delta_size_;
  }
  num_active_ = tree_->num_in_tree();
  TD_DCHECK(CheckInvariants());
}

bool RegionState::CheckInvariants() const {
  if (!IsM(tree_->root())) return false;
  size_t m_count = 0;
  for (NodeId v = 0; v < mode_.size(); ++v) {
    if (!tree_->InTree(v)) continue;
    if (IsM(v)) ++m_count;
    if (v == tree_->root()) continue;
    // Crown invariant: an M vertex's parent is M, so multi-path partial
    // results always have an M receiver one ring closer to the base
    // (Property 1, Edge Correctness, holds by construction).
    if (IsM(v) && !IsM(tree_->parent(v))) return false;
  }
  return m_count == delta_size_;
}

}  // namespace td
