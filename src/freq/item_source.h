// Per-node item collections for the frequent-items problem (Section 6).
//
// Each of the m sensor nodes generates a collection of items (e.g.
// discretized readings); c(u) is the total frequency of item u across all
// nodes and N the total number of occurrences.
#ifndef TD_FREQ_ITEM_SOURCE_H_
#define TD_FREQ_ITEM_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "net/deployment.h"

namespace td {

using Item = uint64_t;
/// item -> occurrence count; std::map keeps every traversal deterministic.
using ItemCounts = std::map<Item, uint64_t>;

/// The item collections of every node in a deployment (index = node id;
/// the base station's collection is empty). Every mutation goes through a
/// method that bumps the node's version, so the engines' epoch-delta
/// replay (keyed by version()) can never serve a stale self synopsis.
class ItemSource {
 public:
  explicit ItemSource(size_t num_nodes)
      : collections_(num_nodes), versions_(num_nodes, 0) {}

  const ItemCounts& collection(NodeId id) const { return collections_[id]; }

  /// Bumped by every mutation of node `id`'s collection.
  uint64_t version(NodeId id) const { return versions_[id]; }

  void Add(NodeId id, Item u, uint64_t count = 1) {
    collections_[id][u] += count;
    ++versions_[id];
  }

  /// Empties node `id`'s collection.
  void Clear(NodeId id) {
    collections_[id].clear();
    ++versions_[id];
  }

  size_t num_nodes() const { return collections_.size(); }

  /// Exact global frequencies (ground truth).
  ItemCounts GlobalCounts() const {
    ItemCounts total;
    for (const auto& coll : collections_) {
      for (const auto& [u, c] : coll) total[u] += c;
    }
    return total;
  }

  /// N: total occurrences across all items and nodes.
  uint64_t TotalOccurrences() const {
    uint64_t n = 0;
    for (const auto& coll : collections_) {
      for (const auto& [u, c] : coll) n += c;
    }
    return n;
  }

  /// Items with frequency strictly above `fraction` * N (ground-truth
  /// frequent items for false negative/positive accounting).
  std::vector<Item> ItemsAboveFraction(double fraction) const {
    ItemCounts global = GlobalCounts();
    double n = static_cast<double>(TotalOccurrences());
    std::vector<Item> out;
    for (const auto& [u, c] : global) {
      if (static_cast<double>(c) > fraction * n) out.push_back(u);
    }
    return out;
  }

 private:
  std::vector<ItemCounts> collections_;
  std::vector<uint64_t> versions_;
};

}  // namespace td

#endif  // TD_FREQ_ITEM_SOURCE_H_
