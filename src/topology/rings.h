// Rings topology for multi-path (synopsis diffusion) aggregation [16].
//
// Construction (Section 2): the base station transmits; every node hearing
// it is in ring 1. Nodes in ring i transmit; any node hearing one of them
// that is not yet in a ring is in ring i+1. This is exactly BFS level order
// over the connectivity graph, which is how we compute it.
#ifndef TD_TOPOLOGY_RINGS_H_
#define TD_TOPOLOGY_RINGS_H_

#include <functional>
#include <vector>

#include "net/connectivity.h"

namespace td {

/// Predicate over a directed edge (from, to); see Rings::Build and
/// RepairTree. Deterministic filters keep topology bit-reproducible.
using LinkFilter = std::function<bool(NodeId from, NodeId to)>;

class Rings {
 public:
  /// Level assigned to nodes the base station cannot reach.
  static constexpr int kUnreachable = -1;

  static Rings Build(const Connectivity& connectivity, NodeId base);

  /// Rings over the active subgraph only: inactive nodes join no ring
  /// (level kUnreachable) and relay no BFS edges, so nodes whose every path
  /// to the base runs through failed relays come out unreachable too. Used
  /// by dynamic scenarios to re-level the network after churn. `active`
  /// must have one entry per node; the base station must be active.
  static Rings Build(const Connectivity& connectivity, NodeId base,
                     const std::vector<bool>& active);

  /// Quality-aware rings: BFS relays only over edges `link_ok` accepts
  /// (evaluated in the propagation direction, parent -> child), so nodes
  /// reachable solely over rejected links come out kUnreachable. Used by
  /// the link layer to keep marginal links (below a PRR floor) out of the
  /// ring structure -- and therefore, via the Section 4.1 subset
  /// constraint, out of every tree. A null filter accepts every edge.
  static Rings Build(const Connectivity& connectivity, NodeId base,
                     const std::vector<bool>& active,
                     const LinkFilter& link_ok);

  /// Ring number; 0 is the base station itself.
  int level(NodeId id) const;

  int max_level() const { return max_level_; }
  NodeId base() const { return base_; }
  size_t num_nodes() const { return level_.size(); }

  /// Nodes in ring `level` (level 0 = {base}).
  const std::vector<NodeId>& NodesAtLevel(int level) const;

  /// Neighbors of `id` exactly one ring closer to the base station: the
  /// candidate receivers of its multi-path broadcast, and the candidate
  /// tree parents under the Section 4.1 synchronization constraint
  /// ("tree links should be a subset of the links in the ring").
  std::vector<NodeId> UpstreamNeighbors(const Connectivity& connectivity,
                                        NodeId id) const;

  /// The same list written into `out` (cleared first), so a caller that
  /// walks many nodes reuses one buffer instead of allocating per node.
  void UpstreamNeighbors(const Connectivity& connectivity, NodeId id,
                         std::vector<NodeId>* out) const;

  /// Count of reachable nodes (level >= 0), including the base.
  size_t num_reachable() const;

 private:
  Rings() = default;

  NodeId base_ = 0;
  int max_level_ = 0;
  std::vector<int> level_;
  std::vector<std::vector<NodeId>> by_level_;
};

}  // namespace td

#endif  // TD_TOPOLOGY_RINGS_H_
