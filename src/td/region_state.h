// The tributary/delta partition of the network (Section 3).
//
// Every vertex is labelled T (tree / tributary) or M (multi-path / delta).
// The Edge Correctness property (an M edge never enters a T vertex) is
// maintained structurally through the *crown invariant*: the M vertices are
// closed under tree-parent -- if v is M then parent(v) is M -- so the delta
// is a connected region containing the base station, fed by tributary
// subtrees, exactly the shape Figure 1 depicts. Under this invariant:
//
//  * an M vertex is *switchable* (may become T) iff all its tree children
//    are T vertices (its incoming edges are all T edges), and it is not the
//    base station;
//  * a T vertex is *switchable* (may become M) iff its tree parent is an M
//    vertex;
//  * Observation 1 holds: all children of a switchable M vertex are
//    switchable T vertices;
//  * Lemma 1 holds: while T (resp. non-base M) vertices exist, at least one
//    of them is switchable -- so the delta can always expand or shrink.
//
// The tree must satisfy the Section 4.1 synchronization constraint (each
// tree parent is a ring-level-(i-1) neighbor), which RegionState checks at
// construction; this is what lets a node switch modes without changing its
// sending epoch.
#ifndef TD_TD_REGION_STATE_H_
#define TD_TD_REGION_STATE_H_

#include <cstdint>
#include <vector>

#include "topology/rings.h"
#include "topology/tree.h"

namespace td {

enum class Mode : uint8_t { kTree, kMultipath };

class RegionState {
 public:
  /// Initial labelling: base station M, every other in-tree node T (a pure
  /// tree network whose delta is just the base station). Checks the
  /// tree-links-subset-of-ring-links constraint.
  RegionState(const Tree* tree, const Rings* rings);

  Mode mode(NodeId id) const;
  bool IsM(NodeId id) const { return mode(id) == Mode::kMultipath; }
  bool IsT(NodeId id) const { return mode(id) == Mode::kTree; }

  /// Every vertex's mode, indexed by id: mode() without the call and the
  /// bounds check, for loops over every node or edge of an epoch.
  const std::vector<Mode>& modes() const { return mode_; }

  /// T vertex whose parent is M (or which has no parent).
  bool IsSwitchableT(NodeId id) const;

  /// Non-base M vertex all of whose tree children are T.
  bool IsSwitchableM(NodeId id) const;

  /// M vertices with all-T children *including* the base station: the
  /// boundary nodes whose subtree "missing" counts drive the TD strategy.
  bool IsFrontierM(NodeId id) const;

  std::vector<NodeId> SwitchableTs() const;
  std::vector<NodeId> SwitchableMs() const;
  std::vector<NodeId> FrontierMs() const;

  /// Switches a switchable T vertex to M (checks the precondition).
  void SwitchToM(NodeId id);

  /// Switches a switchable M vertex to T (checks the precondition).
  void SwitchToT(NodeId id);

  /// TD-Coarse expansion: every switchable T becomes M ("widens the delta
  /// by one level"). Returns the number of switched nodes.
  size_t ExpandAll();

  /// TD-Coarse shrink: every switchable M becomes T. Returns count.
  size_t ShrinkAll();

  /// Labels every in-tree non-base vertex `mode` in one pass: kTree is a
  /// pure tree (TAG), kMultipath a delta covering the whole tree (synopsis
  /// diffusion). Vertices outside the tree stay T; the base stays M.
  void LabelAll(Mode mode);

  /// Re-synchronizes the labelling after the tree and rings were repaired
  /// in place (churn). Surviving nodes keep their mode wherever the crown
  /// invariant allows; nodes that left the tree revert to T, and any M
  /// vertex orphaned under a T parent is demoted top-down so the delta
  /// stays one connected crown. Re-checks the Section 4.1 constraint
  /// against the repaired topology.
  void Resync();

  /// Number of M vertices (the delta region size), base included.
  size_t delta_size() const { return delta_size_; }

  /// Number of in-tree vertices.
  size_t num_active() const { return num_active_; }

  /// Verifies the crown invariant and base labelling; used by tests and
  /// TD_DCHECKs.
  bool CheckInvariants() const;

  const Tree& tree() const { return *tree_; }
  const Rings& rings() const { return *rings_; }

 private:
  const Tree* tree_;
  const Rings* rings_;
  std::vector<Mode> mode_;
  size_t delta_size_ = 0;
  size_t num_active_ = 0;
};

}  // namespace td

#endif  // TD_TD_REGION_STATE_H_
