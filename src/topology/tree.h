// Aggregation tree: parent pointers toward the base station (the root),
// with height/depth/subtree computations used by the frequent-items
// precision gradients and by Tributary-Delta adaptation.
#ifndef TD_TOPOLOGY_TREE_H_
#define TD_TOPOLOGY_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/connectivity.h"

namespace td {

/// Sentinel for "no parent" (the root, or a node outside the tree).
inline constexpr NodeId kNoParent = UINT32_MAX;

class Tree {
 public:
  Tree(size_t num_nodes, NodeId root);

  NodeId root() const { return root_; }
  size_t num_nodes() const { return parent_.size(); }

  /// Attaches `child` under `parent` (re-attaches if already in the tree).
  /// Fails a check if the edge would create a cycle.
  void SetParent(NodeId child, NodeId parent);

  /// Detaches `child` (and implicitly its whole subtree) from the tree.
  void RemoveFromTree(NodeId child);

  NodeId parent(NodeId id) const;
  const std::vector<NodeId>& children(NodeId id) const;

  /// Every node's parent, indexed by id (kNoParent at the root and outside
  /// the tree): parent() without the call and the bounds check, for loops
  /// over every node of an epoch.
  const std::vector<NodeId>& parents() const { return parent_; }

  /// True if the node is the root or has a parent.
  bool InTree(NodeId id) const;

  /// Number of nodes in the tree (root included).
  size_t num_in_tree() const;

  /// Height of each node: leaves have height 1; internal nodes one more
  /// than their maximum child height; nodes outside the tree have height 0.
  std::vector<int> ComputeHeights() const;

  /// Hops to the root (root is 0; outside nodes -1).
  std::vector<int> ComputeDepths() const;

  /// Subtree node counts (each in-tree node counts itself).
  std::vector<size_t> ComputeSubtreeSizes() const;

  /// In-tree nodes in leaves-first (children before parents) order; the
  /// aggregation schedule.
  std::vector<NodeId> TopologicalChildrenFirst() const;

  /// Every tree edge (child, parent) is a link of `connectivity`.
  bool EdgesSubsetOf(const Connectivity& connectivity) const;

 private:
  NodeId root_;
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
};

}  // namespace td

#endif  // TD_TOPOLOGY_TREE_H_
