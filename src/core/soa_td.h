// The Tributary-Delta aggregation kernel (Sections 3-4); every strategy
// runs on it. Section 3 labels each node tree (T) or multi-path (M). The
// kernel runs an adaptive labelling (TD, TD-Coarse: it starts all-T and an
// AdaptationPolicy moves the frontier) or a pinned one: all-T is TAG [10],
// all-M is synopsis diffusion [16] (Section 2).
//
// One epoch proceeds level-by-level (ring levels, highest first; thanks to
// the Section 4.1 constraint, tree children sit exactly one ring level below
// their parent, so a single schedule serves both modes):
//
//   * a T node merges its reading with child partials (Algorithm-1-style
//     finalization hook included) and unicasts the partial to its tree
//     parent -- which may be a T node (plain tree aggregation) or an M node
//     (the tributary feeding the delta, converted on receipt);
//   * an M node fuses its own synopsis, the synopses heard from downstream
//     M nodes, and the *converted* tree partials received from its T
//     children, then broadcasts to all upstream M neighbors;
//   * the base station combines exact tree partials that reached it
//     directly with the fused delta synopsis (EvaluateCombined), so at low
//     loss much of the answer is exact. A pinned labelling hands it an
//     empty synopsis (all-T) or an empty partial (all-M).
//
// The all-T labelling walks Tree::TopologicalChildrenFirst() instead of
// ring levels: both are children-first orders, but the network RNG draws
// in sweep order, and TAG's answers are defined by that order.
//
// Piggybacked alongside the payload (and charged to message size):
//   * contributing counts -- exact integers in tributaries, an FM Count
//     sketch in the delta (tree counts convert via AddValue just like the
//     Count aggregate);
//   * for an adaptive labelling only, the max/min over frontier nodes'
//     "subtree nodes not contributing", fused duplicate-insensitively
//     (max/min are trivially so).
//
// Every `period` epochs (stretched by the oscillation damper) the base
// station of an adaptive labelling runs the policy on this feedback.
//
// Layout: the delta-side synopsis inboxes live in a BankArena when the
// aggregate's synopsis is a raw FM bank (Count, Sum, UniqueCount); the
// contributing-count sketches always do. Tree partials stay typed objects.
// Each side's state is allocated only when the labelling can use it: an
// all-T kernel holds no arena, CSR or missing inbox, an all-M kernel no
// tree inbox, count or subtree size. Coverage keeps one delivered bit per
// tributary unicast (per node) plus one per delta broadcast edge
// (CSR-indexed), and recovers the contributor set with an ascending-level
// reachability pass -- legal because the Section 4.1 constraint puts every
// tree parent, like every upstream ring neighbor, exactly one level closer
// to the base.
//
// Tributary-to-delta conversion goes through the aggregate's own
// FuseConverted into a cleared scratch sketch, then ORs the scratch into
// the arena slot -- OR commutes, so this equals fusing into the inbox
// directly, and the convert memos see the same calls. The
// contributing-count conversion uses FmValueMemo::AddValueTo straight into
// the arena.
#ifndef TD_CORE_SOA_TD_H_
#define TD_CORE_SOA_TD_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "core/soa_layout.h"
#include "core/soa_traits.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "td/adaptation.h"
#include "td/region_state.h"
#include "topology/rings.h"
#include "topology/tree.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

template <Aggregate A>
class SoaTributaryDeltaAggregator {
 public:
  struct Options {
    AdaptationConfig adaptation;
    /// Extra tree retransmissions (Figure 9(b)).
    int tree_extra_retransmissions = 0;
  };

  /// Seed of the piggybacked contributing-count sketch.
  static constexpr uint64_t kContribSeed = 0x510c;

  /// Adaptive labelling (TD, TD-Coarse): starts as a pure tree whose delta
  /// is the base station alone, and `policy` moves the frontier.
  SoaTributaryDeltaAggregator(const Tree* tree, const Rings* rings,
                              Network* network, const A* aggregate,
                              std::unique_ptr<AdaptationPolicy> policy,
                              Options options = {})
      : SoaTributaryDeltaAggregator(tree, rings, network, aggregate,
                                    Labelling::kAdaptive, options) {
    TD_CHECK(policy != nullptr);
    policy_ = std::move(policy);
    subtree_size_ = tree->ComputeSubtreeSizes();
    population_ = tree->num_in_tree() - 1;  // sensors exclude the base
    TD_CHECK_GT(population_, 0u);
  }

  /// Fixed labelling: every in-tree sensor stays in mode `pinned` for the
  /// whole run, through topology repairs too. Mode::kTree is TAG,
  /// Mode::kMultipath synopsis diffusion. Nothing adapts, and no frontier
  /// "missing" counts are kept or charged.
  SoaTributaryDeltaAggregator(const Tree* tree, const Rings* rings,
                              Network* network, const A* aggregate,
                              Mode pinned, Options options = {})
      : SoaTributaryDeltaAggregator(tree, rings, network, aggregate,
                                    pinned == Mode::kTree
                                        ? Labelling::kAllTree
                                        : Labelling::kAllMultipath,
                                    options) {
    if (labelling_ == Labelling::kAllMultipath) {
      region_.LabelAll(Mode::kMultipath);
    }
  }

  using Outcome = EpochOutcome<typename A::Result>;

  /// Runs one aggregation epoch, then (adaptive labelling, when the damper
  /// allows) one adaptation decision based on that epoch's feedback.
  Outcome RunEpoch(uint32_t epoch) {
    Outcome out = RunAggregation(epoch);
    if (policy_ != nullptr && damper_.ShouldAdapt(epoch)) {
      TD_PROFILE_SCOPE(obs::Phase::kAdapt);
      AdaptationConfig cfg = options_.adaptation;
      if (damper_.ShrinkSuppressed(epoch)) {
        cfg.shrink_margin = 2.0;  // contributing fraction can never exceed it
      }
      AdaptAction action = policy_->Adapt(last_feedback_, cfg, &region_);
      damper_.Record(epoch, action);
      ++stats_.decisions;
      if (action == AdaptAction::kExpand) ++stats_.expansions;
      if (action == AdaptAction::kShrink) ++stats_.shrinks;
      if (action != AdaptAction::kNone) {
        // The switch command is a small broadcast from the base station;
        // charge its energy (delivery of control traffic is assumed
        // reliable -- see DESIGN.md).
        network_->CountTransmission(rings_->base(), 8);
      }
    }
    return out;
  }

  /// Reacts to an in-place tree/rings repair (churn, route aging): drops
  /// the cached schedule and CSR adjacency and resyncs the labelling to the
  /// surviving topology (a pinned all-M labelling is re-pinned, so rejoined
  /// nodes rejoin the delta). An adaptive labelling also re-derives the
  /// subtree sizes the frontier "missing" reports divide over, re-bases the
  /// contributing threshold on the live population, and resets the
  /// oscillation damper and feedback medians -- observations from the
  /// pre-repair network should neither delay nor bias the first
  /// post-repair decision. This is what lets the delta shrink back after
  /// nodes rejoin instead of staying saturated at the size the outage
  /// forced. The delta caches stay valid: a node's self state does not
  /// depend on topology.
  void OnTopologyChanged() {
    schedule_valid_ = false;
    csr_valid_ = false;
    region_.Resync();
    if (labelling_ == Labelling::kAllMultipath) {
      region_.LabelAll(Mode::kMultipath);
    }
    if (policy_ == nullptr) return;
    subtree_size_ = tree_->ComputeSubtreeSizes();
    const size_t in_tree = tree_->num_in_tree();
    population_ = in_tree > 1 ? in_tree - 1 : 1;
    damper_.Reset();
    pct_history_.clear();
    pct_raw_history_.clear();
    last_feedback_ = AdaptationFeedback{};
  }

  /// The last RunEpoch's root state (exact tributary partial + fused delta
  /// synopsis), or nullptr before the first epoch. A pinned labelling
  /// surfaces one side only: the partial for all-T, the synopsis for
  /// all-M. The synopsis points into the epoch scratch; both are valid
  /// until the next RunEpoch.
  const typename A::TreePartial* root_partial() const {
    return root_partial_ ? &*root_partial_ : nullptr;
  }
  const typename A::Synopsis* root_synopsis() const { return root_synopsis_; }

  /// Cumulative count of self-state recomputes (delta-cache misses), both
  /// tributary partials and delta synopses.
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

  RegionState& region() { return region_; }
  const RegionState& region() const { return region_; }
  const EngineStats& stats() const { return stats_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
  enum class Labelling : uint8_t { kAdaptive, kAllTree, kAllMultipath };

  struct MissingAgg {
    uint64_t max = 0;
    uint64_t min = 0;
    bool valid = false;

    void Absorb(const MissingAgg& o) {
      if (!o.valid) return;
      if (!valid) {
        *this = o;
      } else {
        max = std::max(max, o.max);
        min = std::min(min, o.min);
      }
    }
    void AbsorbValue(uint64_t v) { Absorb(MissingAgg{v, v, true}); }
  };

  SoaTributaryDeltaAggregator(const Tree* tree, const Rings* rings,
                              Network* network, const A* aggregate,
                              Labelling labelling, Options options)
      : tree_(tree),
        rings_(rings),
        network_(network),
        aggregate_(aggregate),
        labelling_(labelling),
        options_(options),
        contrib_memo_(FmSketch::kDefaultBitmaps, kContribSeed),
        region_(tree, rings),
        damper_(options.adaptation) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(rings != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(tree->num_nodes(), network->size());
  }

  /// Whether the labelling can hold T nodes / M nodes other than the base.
  bool HasTree() const { return labelling_ != Labelling::kAllMultipath; }
  bool HasDelta() const { return labelling_ != Labelling::kAllTree; }

  Outcome RunAggregation(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId base = rings_->base();
    TD_DCHECK(region_.CheckInvariants());

    PrepareScratch();
    if (labelling_ == Labelling::kAllTree) {
      EnsureSchedule();
      for (const TreeHop& hop : schedule_) {
        RunTreeNode(hop.node, hop.parent, epoch);
      }
    } else {
      EnsureCsr();
      edge_delivered_.Reset(csr_.num_edges());
      const std::vector<NodeId>& parent = tree_->parents();
      const std::vector<Mode>& mode = region_.modes();
      for (int level = rings_->max_level(); level >= 1; --level) {
        for (NodeId v : rings_->NodesAtLevel(level)) {
          if (labelling_ == Labelling::kAllMultipath) {
            RunMultipathNode(v, epoch);
          } else if (parent[v] == kNoParent) {
            continue;  // outside the tree
          } else if (mode[v] == Mode::kTree) {
            RunTreeNode(v, parent[v], epoch);
          } else {
            RunMultipathNode(v, epoch);
          }
        }
      }
    }

    std::optional<typename A::TreePartial> base_partial;
    double base_tree_count = 0.0;
    if (HasTree()) {
      base_partial.emplace(aggregate_->EmptyTreePartial());
      aggregate_->MergeTree(&*base_partial, tree_inbox_[base]);
      aggregate_->FinalizeTreePartial(&*base_partial, base);
      base_tree_count = static_cast<double>(tree_count_[base]);
    }
    double delta_count = 0.0;
    if (HasDelta()) {
      contrib_eval_.Clear();
      contrib_eval_.OrBits(contrib_inbox_.Slot(base), contrib_words_);
      delta_count = contrib_eval_.Estimate();
    }

    Outcome out;
    const typename A::Synopsis& base_synopsis = BaseSynopsis(base);
    out.result = aggregate_->EvaluateCombined(
        base_partial ? *base_partial : *empty_tree_partial_, base_synopsis);
    out.true_contributing = ComputeContributors(base);
    out.reported_contributing = base_tree_count + delta_count;
    if (base_partial) root_partial_ = std::move(base_partial);
    if (HasDelta()) root_synopsis_ = &base_synopsis;
    if (policy_ != nullptr) {
      RecordFeedback(base, base_tree_count, delta_count,
                     out.reported_contributing);
    }
    return out;
  }

  void RecordFeedback(NodeId base, double tree_count, double delta_count,
                      double reported) {
    last_feedback_ = AdaptationFeedback{};
    double fm_discount =
        1.0 - 0.78 / std::sqrt(static_cast<double>(FmSketch::kDefaultBitmaps));
    double lcb = tree_count + delta_count * fm_discount;
    auto median3 = [](std::vector<double>* hist, double x) {
      hist->push_back(x);
      if (hist->size() > 3) hist->erase(hist->begin());
      std::vector<double> window = *hist;
      std::sort(window.begin(), window.end());
      return window[window.size() / 2];
    };
    last_feedback_.pct_contributing =
        median3(&pct_history_, lcb / static_cast<double>(population_));
    last_feedback_.pct_contributing_raw = median3(
        &pct_raw_history_, reported / static_cast<double>(population_));
    last_feedback_.max_missing = missing_inbox_[base].max;
    last_feedback_.min_missing = missing_inbox_[base].min;
    last_feedback_.missing_valid = missing_inbox_[base].valid;
    if (missing_inbox_[base].valid) {
      last_feedback_.frontier_missing = frontier_missing_;
    }
  }

  /// Tree node `v` with tree parent `p`.
  void RunTreeNode(NodeId v, NodeId p, uint32_t epoch) {
    typename A::TreePartial& partial = *scratch_partial_;
    MakeSelfPartial(v, epoch, &partial);
    aggregate_->MergeTree(&partial, tree_inbox_[v]);
    aggregate_->FinalizeTreePartial(&partial, v);
    uint64_t contributing = 1 + tree_count_[v];

    TD_DCHECK(p != kNoParent);
    size_t bytes = aggregate_->TreeBytes(partial) + kMessageHeaderBytes;
    bool delivered = network_->DeliverWithRetries(
        v, p, epoch, options_.tree_extra_retransmissions, bytes);
    if (!delivered) return;
    tree_delivered_.Set(v);

    if (labelling_ == Labelling::kAllTree || p == rings_->base() ||
        region_.modes()[p] == Mode::kTree) {
      aggregate_->MergeTree(&tree_inbox_[p], partial);
      tree_count_[p] += contributing;
    } else {
      // Conversion on receipt: FuseConverted into a cleared scratch, OR the
      // scratch into the slot (== fusing into the inbox; OR commutes),
      // count converted via the memo straight into the arena.
      FuseConvertedInto(p, partial);
      contrib_memo_.AddValueTo(contrib_inbox_.Slot(p), contrib_words_, v,
                               contributing);
      tree_count_[p] += contributing;
    }
  }

  void RunMultipathNode(NodeId v, uint32_t epoch) {
    if constexpr (SoaFmSynopsis<A>) {
      // out = self | inbox in one pass over the arena slot
      // (MakeSynopsisInto + Fuse as a word-wide OR).
      const uint32_t* self = SelfBank(v, epoch);
      const uint32_t* in = syn_inbox_.Slot(v);
      for (size_t i = 0; i < syn_words_; ++i) out_syn_[i] = self[i] | in[i];
    } else {
      typename A::Synopsis& syn = *scratch_syn_;
      MakeSelfSynopsis(v, epoch, &syn);
      aggregate_->Fuse(&syn, obj_syn_inbox_[v]);
      // The inbox is dead once fused. Resetting it here lets synopses that
      // own heap blocks (frequent items' class banks) free them at last
      // use; fixed-geometry synopses keep their buffers.
      obj_syn_inbox_[v] = *empty_synopsis_;
    }

    // Contrib bank: inbox copy + own-id insertion (OR commutes, so the
    // order of the two does not matter).
    std::memcpy(out_contrib_.data(), contrib_inbox_.Slot(v),
                contrib_words_ * sizeof(uint32_t));
    FmSketch::AddKeyBits(v, kContribSeed, out_contrib_.data(),
                         contrib_words_);

    const bool adaptive = labelling_ == Labelling::kAdaptive;
    size_t bytes = OutSynopsisBytes() +
                   BankRleBytes(out_contrib_.data(), contrib_words_) +
                   kMessageHeaderBytes;
    MissingAgg missing;
    if (adaptive) {
      missing = missing_inbox_[v];
      if (region_.IsFrontierM(v)) {
        uint64_t descendants = subtree_size_[v] - 1;
        uint64_t received = tree_count_[v];
        uint64_t own_missing =
            descendants > received ? descendants - received : 0;
        missing.AbsorbValue(own_missing);
        frontier_missing_[v] = own_missing;
      }
      bytes += 2 * sizeof(uint64_t);  // the piggybacked max/min
    }
    network_->CountTransmission(v, bytes);

    // Under the pinned all-M labelling every upstream ring neighbor is M.
    bool has_m_upstream = false;
    const std::vector<Mode>& mode = region_.modes();
    const uint32_t edge_end = csr_.offsets[v + 1];
    for (uint32_t e = csr_.offsets[v]; e < edge_end; ++e) {
      const NodeId w = csr_.targets[e];
      if (adaptive && mode[w] != Mode::kMultipath) continue;
      has_m_upstream = true;
      if (network_->Deliver(v, w, epoch)) {
        if constexpr (SoaFmSynopsis<A>) {
          OrWords(syn_inbox_.Slot(w), out_syn_.data(), syn_words_);
        } else {
          aggregate_->Fuse(&obj_syn_inbox_[w], *scratch_syn_);
        }
        OrWords(contrib_inbox_.Slot(w), out_contrib_.data(), contrib_words_);
        if (adaptive) missing_inbox_[w].Absorb(missing);
        edge_delivered_.Set(e);
      }
    }
    TD_DCHECK(has_m_upstream);
    (void)has_m_upstream;
  }

  /// Self bank for FM-synopsis aggregates: replayed from the arena cache
  /// when the delta key is unchanged, recomputed via the aggregate's own
  /// MakeSynopsisInto (and its memos) on miss.
  const uint32_t* SelfBank(NodeId v, uint32_t epoch)
    requires SoaFmSynopsis<A>
  {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      uint32_t* slot = self_banks_.Slot(v);
      if (!(self_valid_.Test(v) && self_key_[v] == key)) {
        td::MakeSynopsisInto(*aggregate_, &*scratch_syn_, v, epoch);
        std::memcpy(slot, scratch_syn_->bitmaps().data(),
                    syn_words_ * sizeof(uint32_t));
        self_key_[v] = key;
        self_valid_.Set(v);
        ++nodes_reprocessed_;
      }
      return slot;
    } else {
      td::MakeSynopsisInto(*aggregate_, &*scratch_syn_, v, epoch);
      ++nodes_reprocessed_;
      return scratch_syn_->bitmaps().data();
    }
  }

  void MakeSelfSynopsis(NodeId v, uint32_t epoch, typename A::Synopsis* out) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      if (syn_cache_.valid.Test(v) && syn_cache_.key[v] == key) {
        *out = syn_cache_.state[v];
        return;
      }
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      syn_cache_.state[v] = *out;
      syn_cache_.key[v] = key;
      syn_cache_.valid.Set(v);
      ++nodes_reprocessed_;
    } else {
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      ++nodes_reprocessed_;
    }
  }

  void MakeSelfPartial(NodeId v, uint32_t epoch, typename A::TreePartial* out) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      if (partial_cache_.valid.Test(v) && partial_cache_.key[v] == key) {
        *out = partial_cache_.state[v];
        return;
      }
      td::MakeTreePartialInto(*aggregate_, out, v, epoch);
      partial_cache_.state[v] = *out;
      partial_cache_.key[v] = key;
      partial_cache_.valid.Set(v);
      ++nodes_reprocessed_;
    } else {
      td::MakeTreePartialInto(*aggregate_, out, v, epoch);
      ++nodes_reprocessed_;
    }
  }

  void FuseConvertedInto(NodeId p, const typename A::TreePartial& partial) {
    if constexpr (SoaFmSynopsis<A>) {
      convert_scratch_->Clear();
      td::FuseConverted(*aggregate_, &*convert_scratch_, partial);
      OrWords(syn_inbox_.Slot(p), convert_scratch_->bitmaps().data(),
              syn_words_);
    } else {
      td::FuseConverted(*aggregate_, &obj_syn_inbox_[p], partial);
    }
  }

  size_t OutSynopsisBytes() {
    if constexpr (SoaFmSynopsis<A>) {
      return BankRleBytes(out_syn_.data(), syn_words_);
    } else {
      return aggregate_->SynopsisBytes(*scratch_syn_);
    }
  }

  /// The fused delta synopsis at the base; empty under all-T.
  const typename A::Synopsis& BaseSynopsis(NodeId base) {
    if (!HasDelta()) return *empty_synopsis_;
    if constexpr (SoaFmSynopsis<A>) {
      eval_syn_->Clear();
      eval_syn_->OrBits(syn_inbox_.Slot(base), syn_words_);
      return *eval_syn_;
    } else {
      return obj_syn_inbox_[base];
    }
  }

  /// Delivered-path reachability over both kinds of delivered hop: a
  /// tributary node's single parent unicast, a delta node's broadcast
  /// edges. Every hop lands one ring closer to the base (the Section 4.1
  /// constraint covers tree parents), so one ascending-level pass settles
  /// it. All-T walks its children-first schedule backwards instead, which
  /// visits parents first just the same.
  size_t ComputeContributors(NodeId base) {
    contributors_.Clear();
    auto reached = [&](NodeId w) { return w == base || contributors_.Test(w); };
    auto tree_reached = [&](NodeId v, NodeId p) {
      return tree_delivered_.Test(v) && reached(p);
    };
    auto delta_reached = [&](NodeId v) {
      const uint32_t edge_end = csr_.offsets[v + 1];
      for (uint32_t e = csr_.offsets[v]; e < edge_end; ++e) {
        if (edge_delivered_.Test(e) && reached(csr_.targets[e])) return true;
      }
      return false;
    };
    size_t contributing = 0;
    auto settle = [&](NodeId v, bool r) {
      if (!r) return;
      contributors_.Set(v);
      ++contributing;
    };
    if (labelling_ == Labelling::kAllTree) {
      for (auto it = schedule_.rbegin(); it != schedule_.rend(); ++it) {
        settle(it->node, tree_reached(it->node, it->parent));
      }
      return contributing;
    }
    const std::vector<NodeId>& parent = tree_->parents();
    const std::vector<Mode>& mode = region_.modes();
    for (int level = 1; level <= rings_->max_level(); ++level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (labelling_ == Labelling::kAllMultipath) {
          settle(v, delta_reached(v));
        } else if (parent[v] != kNoParent) {
          settle(v, mode[v] == Mode::kTree ? tree_reached(v, parent[v])
                                           : delta_reached(v));
        }
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
      empty_tree_partial_.emplace(aggregate_->EmptyTreePartial());
      scratch_partial_.emplace(aggregate_->EmptyTreePartial());
      empty_synopsis_.emplace(aggregate_->EmptySynopsis());
      scratch_syn_.emplace(aggregate_->EmptySynopsis());
      contributors_ = NodeSet(n);
      if (HasTree()) {
        if constexpr (SoaSelfKeyed<A>) {
          partial_cache_.Reset(n, *empty_tree_partial_);
        }
      }
      if (HasDelta()) {
        contrib_words_ = static_cast<size_t>(FmSketch::kDefaultBitmaps);
        out_contrib_.assign(contrib_words_, 0);
        contrib_eval_ =
            FmSketch(FmSketch::kDefaultBitmaps, kContribSeed);
        if constexpr (SoaFmSynopsis<A>) {
          eval_syn_.emplace(aggregate_->EmptySynopsis());
          convert_scratch_.emplace(aggregate_->EmptySynopsis());
          syn_words_ = static_cast<size_t>(eval_syn_->num_bitmaps());
          out_syn_.assign(syn_words_, 0);
          if constexpr (SoaSelfKeyed<A>) {
            self_banks_.Reset(n, syn_words_);
            self_key_.assign(n, 0);
            self_valid_.Reset(n);
          }
        } else if constexpr (SoaSelfKeyed<A>) {
          syn_cache_.Reset(n, *empty_synopsis_);
        }
      }
      prepared_n_ = n;
    }
    if (HasTree()) {
      tree_inbox_.assign(n, *empty_tree_partial_);
      tree_count_.assign(n, 0);
      tree_delivered_.Reset(n);
    }
    if (HasDelta()) {
      if constexpr (SoaFmSynopsis<A>) {
        syn_inbox_.Reset(n, syn_words_);
      } else {
        obj_syn_inbox_.assign(n, *empty_synopsis_);
      }
      contrib_inbox_.Reset(n, contrib_words_);
    }
    if (policy_ != nullptr) {
      missing_inbox_.assign(n, MissingAgg{});
      frontier_missing_.clear();
    }
  }

  /// TAG's children-first schedule without the root, each node with its
  /// parent; rebuilt after topology changes.
  void EnsureSchedule() {
    if (schedule_valid_) return;
    schedule_.clear();
    for (NodeId v : tree_->TopologicalChildrenFirst()) {
      if (v != tree_->root()) schedule_.push_back({v, tree_->parent(v)});
    }
    schedule_valid_ = true;
  }

  void EnsureCsr() {
    if (csr_valid_) return;
    csr_.Build(*rings_, network_->connectivity());
    csr_valid_ = true;
  }

  const Tree* tree_;
  const Rings* rings_;
  Network* network_;
  const A* aggregate_;
  Labelling labelling_;
  Options options_;
  size_t prepared_n_ = 0;
  ScratchStats scratch_stats_;
  uint64_t nodes_reprocessed_ = 0;
  NodeSet contributors_;
  std::optional<typename A::TreePartial> empty_tree_partial_;
  std::optional<typename A::Synopsis> empty_synopsis_;

  // Tree side: all-T and adaptive labellings.
  struct TreeHop {
    NodeId node;
    NodeId parent;
  };
  std::vector<TreeHop> schedule_;  // all-T only
  bool schedule_valid_ = false;
  std::vector<typename A::TreePartial> tree_inbox_;
  std::vector<uint64_t> tree_count_;
  BitVec tree_delivered_;
  SelfStateCache<typename A::TreePartial> partial_cache_;  // across epochs
  std::optional<typename A::TreePartial> scratch_partial_;
  std::optional<typename A::TreePartial> root_partial_;

  // Delta side: all-M and adaptive labellings.
  UpstreamCsr csr_;
  bool csr_valid_ = false;
  size_t syn_words_ = 0;
  size_t contrib_words_ = 0;
  BankArena syn_inbox_;                              // FM path
  std::vector<typename A::Synopsis> obj_syn_inbox_;  // generic path
  BankArena contrib_inbox_;
  BitVec edge_delivered_;
  // Self-state caches (persist across epochs).
  BankArena self_banks_;
  std::vector<uint64_t> self_key_;
  BitVec self_valid_;
  SelfStateCache<typename A::Synopsis> syn_cache_;
  std::vector<uint32_t> out_syn_;
  std::vector<uint32_t> out_contrib_;
  std::optional<typename A::Synopsis> eval_syn_;
  std::optional<typename A::Synopsis> convert_scratch_;
  std::optional<typename A::Synopsis> scratch_syn_;
  FmSketch contrib_eval_{FmSketch::kDefaultBitmaps, 0};
  FmValueMemo contrib_memo_;
  const typename A::Synopsis* root_synopsis_ = nullptr;

  // The labelling, and the adaptive labelling's policy and feedback.
  RegionState region_;
  std::unique_ptr<AdaptationPolicy> policy_;  // null for a pinned labelling
  OscillationDamper damper_;
  EngineStats stats_;
  std::vector<MissingAgg> missing_inbox_;
  std::map<NodeId, uint64_t> frontier_missing_;
  std::vector<size_t> subtree_size_;
  size_t population_ = 0;
  AdaptationFeedback last_feedback_;
  std::vector<double> pct_history_;
  std::vector<double> pct_raw_history_;
};

}  // namespace td

#endif  // TD_CORE_SOA_TD_H_
