#include "topology/tree_builder.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "topology/domination.h"
#include "util/check.h"

namespace td {

namespace {

// Every node's upstream ring neighbors (Rings::UpstreamNeighbors order) in
// one flat list. The optimized builder reads them on every pass, and a
// scenario set-up should not pay a heap vector per node per pass.
class UpstreamLists {
 public:
  UpstreamLists(const Connectivity& connectivity, const Rings& rings)
      : begin_(connectivity.num_nodes() + 1, 0) {
    std::vector<NodeId> up;
    for (NodeId v = 0; v < connectivity.num_nodes(); ++v) {
      begin_[v] = static_cast<uint32_t>(nodes_.size());
      rings.UpstreamNeighbors(connectivity, v, &up);
      nodes_.insert(nodes_.end(), up.begin(), up.end());
    }
    begin_.back() = static_cast<uint32_t>(nodes_.size());
  }

  std::span<const NodeId> of(NodeId v) const {
    return {nodes_.data() + begin_[v], begin_[v + 1] - begin_[v]};
  }

 private:
  std::vector<uint32_t> begin_;
  std::vector<NodeId> nodes_;
};

// Initial attachment: every reachable node picks a parent among its
// upstream (ring level-1) neighbors, uniformly at random. Processing level
// by level guarantees parents are attached before children.
Tree BuildStrictLevelTree(const Connectivity& connectivity, const Rings& rings,
                          const UpstreamLists& upstream, Rng* rng) {
  Tree tree(connectivity.num_nodes(), rings.base());
  for (int level = 1; level <= rings.max_level(); ++level) {
    for (NodeId v : rings.NodesAtLevel(level)) {
      std::span<const NodeId> up = upstream.of(v);
      // BFS levels guarantee at least one upstream neighbor.
      TD_CHECK(!up.empty());
      NodeId p = up[rng->NextBounded(up.size())];
      tree.SetParent(v, p);
    }
  }
  return tree;
}

}  // namespace

Tree BuildTagTree(const Connectivity& connectivity, const Rings& rings,
                  const TreeBuildOptions& options, Rng* rng) {
  Tree tree(connectivity.num_nodes(), rings.base());
  std::vector<NodeId> up;
  for (int level = 1; level <= rings.max_level(); ++level) {
    for (NodeId v : rings.NodesAtLevel(level)) {
      rings.UpstreamNeighbors(connectivity, v, &up);
      TD_CHECK(!up.empty());
      // Optionally pick a same-level neighbor instead. Restricting the
      // choice to neighbors with a smaller id that are already attached
      // keeps the parent relation acyclic (ids strictly decrease along any
      // same-level chain).
      if (options.same_level_parent_prob > 0.0 &&
          rng->Bernoulli(options.same_level_parent_prob)) {
        std::vector<NodeId> same;
        for (NodeId w : connectivity.Neighbors(v)) {
          if (rings.level(w) == level && w < v && tree.InTree(w)) {
            same.push_back(w);
          }
        }
        if (!same.empty()) {
          tree.SetParent(v, same[rng->NextBounded(same.size())]);
          continue;
        }
      }
      tree.SetParent(v, up[rng->NextBounded(up.size())]);
    }
  }
  return tree;
}

Tree BuildOptimizedTree(const Connectivity& connectivity, const Rings& rings,
                        const TreeBuildOptions& options, Rng* rng) {
  const UpstreamLists upstream(connectivity, rings);
  Tree tree = BuildStrictLevelTree(connectivity, rings, upstream, rng);

  const size_t n = connectivity.num_nodes();
  std::vector<bool> pinned(n, false);
  std::vector<bool> flagged(n, false);

  Tree best = tree;
  double best_d = DominationFactor(ComputeHeightHistogram(best));
  std::vector<NodeId> candidates;

  for (int round = 0; round < options.switching_rounds; ++round) {
    std::vector<int> height = tree.ComputeHeights();

    // Pinning pass: a non-flagged node with two or more children of equal
    // height pins two of them and flags itself (Lemma 2 with d = 2). We
    // prefer the highest such height so the locked-in structure reaches as
    // far down the tree as possible, and prefer already-flagged children
    // (the "two flagged children" rule of the search loop); ties keep the
    // children's order.
    bool new_flags = false;
    for (NodeId x = 0; x < n; ++x) {
      if (flagged[x] || !tree.InTree(x)) continue;
      const std::vector<NodeId>& kids = tree.children(x);
      int pin_height = -1;  // highest height shared by two children
      for (size_t i = 0; i < kids.size(); ++i) {
        const int h = height[kids[i]];
        if (h <= pin_height) continue;
        for (size_t j = i + 1; j < kids.size(); ++j) {
          if (height[kids[j]] == h) {
            pin_height = h;
            break;
          }
        }
      }
      if (pin_height < 0) continue;
      int pins = 0;
      for (bool want_flagged : {true, false}) {
        for (NodeId c : kids) {
          if (pins < 2 && height[c] == pin_height &&
              flagged[c] == want_flagged) {
            pinned[c] = true;
            ++pins;
          }
        }
      }
      flagged[x] = true;
      new_flags = true;
    }

    // Switching pass: non-pinned nodes move to a random reachable
    // non-flagged upstream neighbor, making room for new same-height pairs
    // to form under currently unflagged parents.
    bool switched = false;
    for (int level = 1; level <= rings.max_level(); ++level) {
      for (NodeId v : rings.NodesAtLevel(level)) {
        if (pinned[v]) continue;
        candidates.clear();
        for (NodeId w : upstream.of(v)) {
          if (!flagged[w]) candidates.push_back(w);
        }
        if (candidates.empty()) continue;
        NodeId p = candidates[rng->NextBounded(candidates.size())];
        if (p != tree.parent(v)) {
          tree.SetParent(v, p);
          switched = true;
        }
      }
    }

    if (options.keep_best_round) {
      double d = DominationFactor(ComputeHeightHistogram(tree));
      if (d > best_d) {
        best_d = d;
        best = tree;
      }
    }
    if (!new_flags && !switched) break;
  }

  if (!options.keep_best_round) return tree;
  // The final tree may beat the best recorded one (the loop records before
  // the last switching pass settles).
  double final_d = DominationFactor(ComputeHeightHistogram(tree));
  if (final_d >= best_d) return tree;
  return best;
}

Tree BuildTagTree(const Connectivity& connectivity, const Rings& rings,
                  Rng* rng) {
  TreeBuildOptions options;
  options.same_level_parent_prob = 0.25;
  return BuildTagTree(connectivity, rings, options, rng);
}

Tree BuildOptimizedTree(const Connectivity& connectivity, const Rings& rings,
                        Rng* rng) {
  return BuildOptimizedTree(connectivity, rings, TreeBuildOptions{}, rng);
}

Tree BuildEtxTree(const Connectivity& connectivity, const Rings& rings,
                  const LinkCostFn& cost) {
  TD_CHECK(cost != nullptr);
  Tree tree(connectivity.num_nodes(), rings.base());
  std::vector<NodeId> up;
  for (int level = 1; level <= rings.max_level(); ++level) {
    for (NodeId v : rings.NodesAtLevel(level)) {
      rings.UpstreamNeighbors(connectivity, v, &up);
      // BFS levels guarantee at least one upstream neighbor.
      TD_CHECK(!up.empty());
      NodeId best = up.front();
      double best_cost = cost(v, best);
      for (size_t i = 1; i < up.size(); ++i) {
        const double c = cost(v, up[i]);
        // Strict < with ascending ids: ties resolve to the lowest id.
        if (c < best_cost) {
          best = up[i];
          best_cost = c;
        }
      }
      tree.SetParent(v, best);
    }
  }
  return tree;
}

TreeRepairResult RepairTree(Tree* tree, const Connectivity& connectivity,
                            const Rings& rings,
                            const std::vector<bool>& alive) {
  return RepairTree(tree, connectivity, rings, alive, nullptr);
}

TreeRepairResult RepairTree(Tree* tree, const Connectivity& connectivity,
                            const Rings& rings,
                            const std::vector<bool>& alive,
                            const LinkFilter& edge_ok) {
  TD_CHECK(tree != nullptr);
  TD_CHECK_EQ(tree->num_nodes(), rings.num_nodes());
  TD_CHECK_EQ(alive.size(), rings.num_nodes());
  const NodeId root = tree->root();
  TD_CHECK_EQ(root, rings.base());

  TreeRepairResult result;

  // Pass 1: drop everything that cannot stay -- dead nodes, and alive nodes
  // with no path to the base over alive relays (ring level kUnreachable).
  for (NodeId v = 0; v < tree->num_nodes(); ++v) {
    if (v == root) continue;
    if ((!alive[v] || rings.level(v) <= 0) && tree->InTree(v)) {
      tree->RemoveFromTree(v);
      ++result.detached;
    }
  }

  // Pass 2: level-ascending parent fix. Parents live one ring closer to the
  // base, so by the time level L is processed every valid candidate at
  // level L-1 already has its final in-tree status -- each alive reachable
  // node therefore ends the pass attached (its BFS predecessor is always a
  // candidate).
  for (int level = 1; level <= rings.max_level(); ++level) {
    for (NodeId v : rings.NodesAtLevel(level)) {
      if (!alive[v]) continue;  // kept out of by_level_ anyway; be explicit
      NodeId p = tree->parent(v);
      const bool parent_ok = p != kNoParent && tree->InTree(p) &&
                             (p == root || alive[p]) &&
                             rings.level(p) == level - 1 &&
                             (!edge_ok || edge_ok(v, p));
      if (parent_ok) continue;
      // Two candidate sweeps: first honoring the edge filter, then -- if
      // the filter rejected every upstream option -- unfiltered, because a
      // bad parent beats no parent (see header).
      NodeId best = kNoParent;
      size_t best_children = 0;
      for (int sweep = 0; sweep < 2 && best == kNoParent; ++sweep) {
        const bool filtered = edge_ok && sweep == 0;
        for (NodeId w : rings.UpstreamNeighbors(connectivity, v)) {
          if (!tree->InTree(w)) continue;
          if (filtered && !edge_ok(v, w)) continue;
          size_t c = tree->children(w).size();
          if (best == kNoParent || c < best_children ||
              (c == best_children && w < best)) {
            best = w;
            best_children = c;
          }
        }
        if (!edge_ok) break;
      }
      if (best != kNoParent) {
        if (best != p) {
          tree->SetParent(v, best);
          ++result.reattached;
        }
      } else if (tree->InTree(v)) {
        // Cannot happen for a ring-reachable node (see above), but stay
        // defensive: better a detached node than a dangling edge.
        tree->RemoveFromTree(v);
        ++result.detached;
      }
    }
  }
  return result;
}

}  // namespace td
