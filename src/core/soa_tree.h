// TAG-style tree aggregation engine [10] (Section 2, "Tree-Based").
//
// In-network aggregation proceeds level-by-level from the leaves: each node
// merges its children's partial results into its own reading, finalizes
// (aggregates with per-node behavior hook in here), and unicasts the
// partial to its parent. A lost message drops the entire subtree from the
// answer -- the severe robustness problem Tributary-Delta exists to fix.
//
// Layout. Tree partials stay typed objects (they are tiny PODs for the
// registry aggregates and carry no bank to arena-ize). Coverage is ONE
// delivered bit per node (each node unicasts to exactly one parent) plus a
// reverse-topological reachability pass, and the children-first schedule
// is computed once and cached until OnTopologyChanged.
//
// Epoch deltas: when the aggregate exposes SelfSynopsisKey, a node whose
// key is unchanged replays its cached MakeTreePartialInto result (the self
// partial BEFORE child merges, which is the pure-function part).
#ifndef TD_CORE_SOA_TREE_H_
#define TD_CORE_SOA_TREE_H_

#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "core/soa_layout.h"
#include "core/soa_traits.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "topology/tree.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

template <Aggregate A>
class SoaTreeAggregator {
 public:
  struct Options {
    /// Extra transmission attempts after a loss (Figure 9(b) lets tree
    /// nodes retransmit twice: extra_retransmissions = 2).
    int extra_retransmissions = 0;
    /// Keep each epoch's root partial (see root_partial()); off by default.
    bool capture_root = false;
  };

  SoaTreeAggregator(const Tree* tree, Network* network, const A* aggregate,
                    Options options = {})
      : tree_(tree),
        network_(network),
        aggregate_(aggregate),
        options_(options) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(tree->num_nodes(), network->size());
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId root = tree_->root();
    PrepareScratch();
    EnsureTopo();
    delivered_.Reset(tree_->num_nodes());

    for (NodeId v : topo_) {
      if (v == root) continue;
      typename A::TreePartial& partial = *scratch_partial_;
      MakeSelfPartial(v, epoch, &partial);
      aggregate_->MergeTree(&partial, inbox_[v]);
      aggregate_->FinalizeTreePartial(&partial, v);
      uint64_t contributing = 1 + inbox_count_[v];

      NodeId parent = tree_->parent(v);
      size_t bytes = aggregate_->TreeBytes(partial) + kMessageHeaderBytes;
      bool delivered = network_->DeliverWithRetries(
          v, parent, epoch, options_.extra_retransmissions, bytes);
      if (delivered) {
        aggregate_->MergeTree(&inbox_[parent], partial);
        inbox_count_[parent] += contributing;
        delivered_.Set(v);
      }
    }

    typename A::TreePartial final_partial = aggregate_->EmptyTreePartial();
    aggregate_->MergeTree(&final_partial, inbox_[root]);
    aggregate_->FinalizeTreePartial(&final_partial, root);

    Outcome out;
    out.result = aggregate_->EvaluateTree(final_partial);
    out.true_contributing = ComputeContributors(root);
    out.reported_contributing = static_cast<double>(inbox_count_[root]);
    // Base-station bookkeeping for window and federation consumers: the
    // root partial is kept, never retransmitted, so capture adds zero radio
    // bytes and leaves the epoch's deliveries untouched.
    if (options_.capture_root) root_partial_ = std::move(final_partial);
    return out;
  }

  /// Drops the cached children-first schedule; delta caches stay valid.
  void OnTopologyChanged() { topo_valid_ = false; }

  /// The last RunEpoch's root partial, or nullptr before the first
  /// captured epoch (or without Options::capture_root). Valid until the
  /// next RunEpoch.
  const typename A::TreePartial* root_partial() const {
    return root_partial_ ? &*root_partial_ : nullptr;
  }

  /// Cumulative count of self-partial recomputes (delta-cache misses).
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

  const Tree& tree() const { return *tree_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
  void MakeSelfPartial(NodeId v, uint32_t epoch, typename A::TreePartial* out) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      if (self_cache_.valid.Test(v) && self_cache_.key[v] == key) {
        *out = self_cache_.state[v];
        return;
      }
      td::MakeTreePartialInto(*aggregate_, out, v, epoch);
      self_cache_.state[v] = *out;
      self_cache_.key[v] = key;
      self_cache_.valid.Set(v);
      ++nodes_reprocessed_;
    } else {
      td::MakeTreePartialInto(*aggregate_, out, v, epoch);
      ++nodes_reprocessed_;
    }
  }

  /// A node contributed iff its own unicast AND every ancestor hop up to
  /// the root was delivered. Walking the cached children-first order in
  /// reverse visits parents before children, so one pass settles it.
  size_t ComputeContributors(NodeId root) {
    contributors_.Clear();
    size_t contributing = 0;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const NodeId v = *it;
      if (v == root || !delivered_.Test(v)) continue;
      const NodeId p = tree_->parent(v);
      if (p == root || contributors_.Test(p)) {
        contributors_.Set(v);
        ++contributing;
      }
    }
    return contributing;
  }

  void PrepareScratch() {
    const size_t n = tree_->num_nodes();
    if (prepared_n_ == n) {
      ++scratch_stats_.reuses;
    } else {
      ++scratch_stats_.builds;
      empty_partial_.emplace(aggregate_->EmptyTreePartial());
      scratch_partial_.emplace(aggregate_->EmptyTreePartial());
      contributors_ = NodeSet(n);
      if constexpr (SoaSelfKeyed<A>) {
        self_cache_.Reset(n, *empty_partial_);
      }
      prepared_n_ = n;
    }
    inbox_.assign(n, *empty_partial_);
    inbox_count_.assign(n, 0);
  }

  void EnsureTopo() {
    if (topo_valid_) return;
    topo_ = tree_->TopologicalChildrenFirst();
    topo_valid_ = true;
  }

  const Tree* tree_;
  Network* network_;
  const A* aggregate_;
  Options options_;

  std::vector<NodeId> topo_;
  bool topo_valid_ = false;
  size_t prepared_n_ = 0;

  std::vector<typename A::TreePartial> inbox_;
  std::vector<uint64_t> inbox_count_;
  BitVec delivered_;
  NodeSet contributors_;
  SelfStateCache<typename A::TreePartial> self_cache_;
  ScratchStats scratch_stats_;
  std::optional<typename A::TreePartial> empty_partial_;
  std::optional<typename A::TreePartial> scratch_partial_;
  uint64_t nodes_reprocessed_ = 0;
  std::optional<typename A::TreePartial> root_partial_;
};

}  // namespace td

#endif  // TD_CORE_SOA_TREE_H_
