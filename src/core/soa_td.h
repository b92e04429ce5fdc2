// The Tributary-Delta aggregation engine (Sections 3-4).
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
//     loss much of the answer is exact.
//
// Piggybacked alongside the payload (and charged to message size):
//   * contributing counts -- exact integers in tributaries, an FM Count
//     sketch in the delta (tree counts convert via AddValue just like the
//     Count aggregate);
//   * for the TD strategy, the max/min over frontier nodes' "subtree nodes
//     not contributing", fused duplicate-insensitively (max/min are
//     trivially so).
//
// Every `period` epochs (stretched by the oscillation damper) the base
// station runs the adaptation policy on this feedback.
//
// Layout: the delta-side synopsis inboxes live in a BankArena when the
// aggregate's synopsis is a raw FM bank (Count, Sum, UniqueCount); the
// contributing-count sketches always do. Tree partials stay typed objects.
// Coverage keeps one delivered bit per tributary unicast (per node) plus
// one per delta broadcast edge (CSR-indexed), and recovers the contributor
// set with an ascending-level reachability pass -- legal because the
// Section 4.1 constraint puts every tree parent, like every upstream ring
// neighbor, exactly one level closer to the base.
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
    /// Seed for the piggybacked contributing-count sketch.
    uint64_t contrib_seed = 0x510c;
    /// Total sensor population the base station divides by to obtain the
    /// contributing fraction; 0 means "use the number of in-tree sensors".
    size_t sensor_population = 0;
    /// Keep each epoch's root state (see root_partial / root_synopsis).
    bool capture_root = false;
  };

  struct Stats {
    size_t expansions = 0;
    size_t shrinks = 0;
    size_t decisions = 0;  // includes rounds that changed nothing
  };

  SoaTributaryDeltaAggregator(const Tree* tree, const Rings* rings,
                              Network* network, const A* aggregate,
                              std::unique_ptr<AdaptationPolicy> policy,
                              Options options = {})
      : tree_(tree),
        rings_(rings),
        network_(network),
        aggregate_(aggregate),
        policy_(std::move(policy)),
        options_(options),
        region_(tree, rings),
        damper_(options.adaptation),
        contrib_memo_(FmSketch::kDefaultBitmaps, options.contrib_seed) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(rings != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK(policy_ != nullptr);
    subtree_size_ = tree->ComputeSubtreeSizes();
    population_ = options_.sensor_population != 0
                      ? options_.sensor_population
                      : tree->num_in_tree() - 1;  // sensors exclude the base
    TD_CHECK_GT(population_, 0u);
  }

  using Outcome = EpochOutcome<typename A::Result>;

  /// Runs one aggregation epoch, then (when the damper allows) one
  /// adaptation decision based on that epoch's feedback.
  Outcome RunEpoch(uint32_t epoch) {
    Outcome out = RunAggregation(epoch);
    if (damper_.ShouldAdapt(epoch)) {
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

  /// Reacts to an in-place tree/rings repair (churn): re-derives the
  /// subtree sizes the frontier "missing" reports divide over, resyncs the
  /// region labelling to the surviving topology, re-bases the contributing
  /// threshold on the live population, resets the oscillation damper and
  /// feedback medians -- observations from the pre-repair network should
  /// neither delay nor bias the first post-repair decision -- and drops
  /// the cached CSR adjacency. This is what lets the delta shrink back
  /// after nodes rejoin instead of staying saturated at the size the
  /// outage forced.
  void OnTopologyChanged() {
    subtree_size_ = tree_->ComputeSubtreeSizes();
    region_.Resync();
    if (options_.sensor_population == 0) {
      size_t in_tree = tree_->num_in_tree();
      population_ = in_tree > 1 ? in_tree - 1 : 1;
    }
    damper_.Reset();
    pct_history_.clear();
    pct_raw_history_.clear();
    last_feedback_ = AdaptationFeedback{};
    csr_valid_ = false;
  }

  /// The last RunEpoch's root state (exact tributary partial + fused delta
  /// synopsis), or nullptr before the first captured epoch (or without
  /// Options::capture_root). The synopsis points into the epoch scratch;
  /// both are valid until the next RunEpoch.
  const typename A::TreePartial* root_partial() const {
    return root_partial_ ? &*root_partial_ : nullptr;
  }
  const typename A::Synopsis* root_synopsis() const { return root_synopsis_; }

  /// Cumulative count of self-state recomputes (delta-cache misses), both
  /// tributary partials and delta synopses.
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

  RegionState& region() { return region_; }
  const RegionState& region() const { return region_; }
  const Stats& stats() const { return stats_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }
  const AdaptationFeedback& last_feedback() const { return last_feedback_; }
  OscillationDamper& damper() { return damper_; }

 private:
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

  Outcome RunAggregation(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId base = rings_->base();
    TD_DCHECK(region_.CheckInvariants());

    PrepareScratch();
    EnsureCsr();
    tree_delivered_.Reset(tree_->num_nodes());
    edge_delivered_.Reset(csr_.num_edges());

    for (int level = rings_->max_level(); level >= 1; --level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (!tree_->InTree(v)) continue;
        if (region_.IsT(v)) {
          RunTreeNode(v, epoch);
        } else {
          RunMultipathNode(v, epoch);
        }
      }
    }

    typename A::TreePartial base_partial = aggregate_->EmptyTreePartial();
    aggregate_->MergeTree(&base_partial, tree_inbox_[base]);
    aggregate_->FinalizeTreePartial(&base_partial, base);

    Outcome out;
    out.result = aggregate_->EvaluateCombined(base_partial, BaseSynopsis(base));
    out.true_contributing = ComputeContributors(base);
    contrib_eval_.Clear();
    contrib_eval_.OrBits(contrib_inbox_.Slot(base), contrib_words_);
    out.reported_contributing =
        static_cast<double>(tree_count_[base]) + contrib_eval_.Estimate();
    if (options_.capture_root) {
      root_partial_ = std::move(base_partial);
      if constexpr (SoaFmSynopsis<A>) {
        root_synopsis_ = &*eval_syn_;
      } else {
        root_synopsis_ = &obj_syn_inbox_[base];
      }
    }

    last_feedback_ = AdaptationFeedback{};
    double fm_discount =
        1.0 - 0.78 / std::sqrt(static_cast<double>(FmSketch::kDefaultBitmaps));
    double lcb = static_cast<double>(tree_count_[base]) +
                 contrib_eval_.Estimate() * fm_discount;
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
        &pct_raw_history_,
        out.reported_contributing / static_cast<double>(population_));
    last_feedback_.max_missing = missing_inbox_[base].max;
    last_feedback_.min_missing = missing_inbox_[base].min;
    last_feedback_.missing_valid = missing_inbox_[base].valid;
    if (missing_inbox_[base].valid) {
      last_feedback_.frontier_missing = frontier_missing_;
    }
    return out;
  }

  void RunTreeNode(NodeId v, uint32_t epoch) {
    typename A::TreePartial& partial = *scratch_partial_;
    MakeSelfPartial(v, epoch, &partial);
    aggregate_->MergeTree(&partial, tree_inbox_[v]);
    aggregate_->FinalizeTreePartial(&partial, v);
    uint64_t contributing = 1 + tree_count_[v];

    NodeId p = tree_->parent(v);
    TD_DCHECK(p != kNoParent);
    size_t bytes = aggregate_->TreeBytes(partial) + kMessageHeaderBytes;
    bool delivered = network_->DeliverWithRetries(
        v, p, epoch, options_.tree_extra_retransmissions, bytes);
    if (!delivered) return;
    tree_delivered_.Set(v);

    if (region_.IsT(p) || p == rings_->base()) {
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
      const uint32_t* self = SelfBank(v, epoch);
      const uint32_t* in = syn_inbox_.Slot(v);
      for (size_t i = 0; i < syn_words_; ++i) out_syn_[i] = self[i] | in[i];
    } else {
      typename A::Synopsis& syn = *scratch_syn_;
      MakeSelfSynopsis(v, epoch, &syn);
      aggregate_->Fuse(&syn, obj_syn_inbox_[v]);
      // Dead once fused; see SoaMultipathAggregator::RunEpoch.
      obj_syn_inbox_[v] = *empty_synopsis_;
    }

    std::memcpy(out_contrib_.data(), contrib_inbox_.Slot(v),
                contrib_words_ * sizeof(uint32_t));
    FmSketch::AddKeyBits(v, options_.contrib_seed, out_contrib_.data(),
                         contrib_words_);

    MissingAgg missing = missing_inbox_[v];
    if (region_.IsFrontierM(v)) {
      uint64_t descendants = subtree_size_[v] - 1;
      uint64_t received = tree_count_[v];
      uint64_t own_missing =
          descendants > received ? descendants - received : 0;
      missing.AbsorbValue(own_missing);
      frontier_missing_[v] = own_missing;
    }

    size_t bytes = OutSynopsisBytes() +
                   BankRleBytes(out_contrib_.data(), contrib_words_) +
                   2 * sizeof(uint64_t) + kMessageHeaderBytes;
    network_->CountTransmission(v, bytes);
    bool has_m_upstream = false;
    const uint32_t edge_end = csr_.offsets[v + 1];
    for (uint32_t e = csr_.offsets[v]; e < edge_end; ++e) {
      const NodeId w = csr_.targets[e];
      if (!region_.IsM(w)) continue;
      has_m_upstream = true;
      if (network_->Deliver(v, w, epoch)) {
        if constexpr (SoaFmSynopsis<A>) {
          OrWords(syn_inbox_.Slot(w), out_syn_.data(), syn_words_);
        } else {
          aggregate_->Fuse(&obj_syn_inbox_[w], *scratch_syn_);
        }
        OrWords(contrib_inbox_.Slot(w), out_contrib_.data(), contrib_words_);
        missing_inbox_[w].Absorb(missing);
        edge_delivered_.Set(e);
      }
    }
    TD_DCHECK(has_m_upstream);
    (void)has_m_upstream;
  }

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

  const typename A::Synopsis& BaseSynopsis(NodeId base) {
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
  /// it.
  size_t ComputeContributors(NodeId base) {
    contributors_.Clear();
    size_t contributing = 0;
    for (int level = 1; level <= rings_->max_level(); ++level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (!tree_->InTree(v)) continue;
        bool reached = false;
        if (region_.IsT(v)) {
          if (tree_delivered_.Test(v)) {
            const NodeId p = tree_->parent(v);
            reached = (p == base) || contributors_.Test(p);
          }
        } else {
          const uint32_t edge_end = csr_.offsets[v + 1];
          for (uint32_t e = csr_.offsets[v]; e < edge_end && !reached; ++e) {
            if (!edge_delivered_.Test(e)) continue;
            const NodeId w = csr_.targets[e];
            if (w == base || contributors_.Test(w)) reached = true;
          }
        }
        if (reached) {
          contributors_.Set(v);
          ++contributing;
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
      scratch_syn_.emplace(aggregate_->EmptySynopsis());
      contrib_words_ = static_cast<size_t>(FmSketch::kDefaultBitmaps);
      out_contrib_.assign(contrib_words_, 0);
      contrib_eval_ = FmSketch(FmSketch::kDefaultBitmaps, options_.contrib_seed);
      contributors_ = NodeSet(n);
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
      } else {
        empty_synopsis_.emplace(aggregate_->EmptySynopsis());
        if constexpr (SoaSelfKeyed<A>) {
          syn_cache_.Reset(n, *empty_synopsis_);
        }
      }
      if constexpr (SoaSelfKeyed<A>) {
        partial_cache_.Reset(n, *empty_tree_partial_);
      }
      prepared_n_ = n;
    }
    tree_inbox_.assign(n, *empty_tree_partial_);
    tree_count_.assign(n, 0);
    if constexpr (SoaFmSynopsis<A>) {
      syn_inbox_.Reset(n, syn_words_);
    } else {
      obj_syn_inbox_.assign(n, *empty_synopsis_);
    }
    contrib_inbox_.Reset(n, contrib_words_);
    missing_inbox_.assign(n, MissingAgg{});
    frontier_missing_.clear();
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
  std::unique_ptr<AdaptationPolicy> policy_;
  Options options_;
  RegionState region_;
  OscillationDamper damper_;
  Stats stats_;

  UpstreamCsr csr_;
  bool csr_valid_ = false;
  size_t prepared_n_ = 0;
  size_t syn_words_ = 0;
  size_t contrib_words_ = 0;

  // Flat epoch state.
  std::vector<typename A::TreePartial> tree_inbox_;
  std::vector<uint64_t> tree_count_;
  BankArena syn_inbox_;                             // FM path
  std::vector<typename A::Synopsis> obj_syn_inbox_;  // generic path
  BankArena contrib_inbox_;
  std::vector<MissingAgg> missing_inbox_;
  std::map<NodeId, uint64_t> frontier_missing_;
  BitVec tree_delivered_;
  BitVec edge_delivered_;
  NodeSet contributors_;

  // Delta caches (persist across epochs).
  BankArena self_banks_;
  std::vector<uint64_t> self_key_;
  BitVec self_valid_;
  SelfStateCache<typename A::Synopsis> syn_cache_;
  SelfStateCache<typename A::TreePartial> partial_cache_;

  // Per-node scratch.
  std::vector<uint32_t> out_syn_;
  std::vector<uint32_t> out_contrib_;
  std::optional<typename A::Synopsis> eval_syn_;
  std::optional<typename A::Synopsis> convert_scratch_;
  std::optional<typename A::Synopsis> empty_synopsis_;
  std::optional<typename A::TreePartial> empty_tree_partial_;
  std::optional<typename A::TreePartial> scratch_partial_;
  std::optional<typename A::Synopsis> scratch_syn_;
  FmSketch contrib_eval_{FmSketch::kDefaultBitmaps, 0};
  FmValueMemo contrib_memo_;
  ScratchStats scratch_stats_;

  std::vector<size_t> subtree_size_;
  size_t population_ = 0;
  AdaptationFeedback last_feedback_;
  std::vector<double> pct_history_;
  std::vector<double> pct_raw_history_;
  uint64_t nodes_reprocessed_ = 0;
  std::optional<typename A::TreePartial> root_partial_;
  const typename A::Synopsis* root_synopsis_ = nullptr;
};

}  // namespace td

#endif  // TD_CORE_SOA_TD_H_
