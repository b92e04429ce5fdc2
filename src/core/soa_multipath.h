// Synopsis-diffusion multi-path aggregation over the rings topology [16]
// (Section 2, "Multi-Path-Based").
//
// Nodes in ring i+1 broadcast while ring i listens; every ring-i node that
// hears a ring-(i+1) partial result fuses it into its own. Because each
// reading reaches the base station along many ring paths, a single message
// loss almost never removes it from the answer; the price is the
// duplicate-insensitive synopsis (approximation error, larger messages).
//
// Alongside the aggregate's synopsis, the engine piggybacks an FM Count
// sketch of contributing node ids -- the "(approximate) Count of the number
// of nodes contributing" that Section 4.2 adds to every message so the base
// station can estimate the % contributing.
//
// Layout (FM-synopsis aggregates, the paper's Section 7.1 path):
//   * every node's synopsis inbox is one slot of a position-major uint32_t
//     BankArena, so a fuse is OrWords over adjacent memory;
//   * the piggybacked contributing-count sketches live in a second arena,
//     whatever the aggregate's synopsis type is (they are always FM banks);
//   * coverage keeps ONE delivered bit per upstream edge (CSR-indexed), and
//     the contributor set falls out of an O(n + E) reachability pass.
// Every other aggregate (Average's two banks, Min/Max, samples, q-digests,
// query sets, frequent items) keeps typed synopsis inboxes on the same
// schedule.
//
// Epoch deltas: when the aggregate exposes SelfSynopsisKey (all registry
// aggregates do), a node whose key is unchanged since the previous epoch
// replays its cached self bank and skips MakeSynopsisInto entirely --
// FmValueMemo's idea promoted from single insertions to whole nodes.
#ifndef TD_CORE_SOA_MULTIPATH_H_
#define TD_CORE_SOA_MULTIPATH_H_

#include <cstring>
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
#include "topology/rings.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

template <Aggregate A>
class SoaMultipathAggregator {
 public:
  struct Options {
    /// Seed for the piggybacked contributing-count sketch.
    uint64_t contrib_seed = 0x510c;
    /// Keep a view of each epoch's root synopsis (see root_synopsis()).
    bool capture_root = false;
  };

  SoaMultipathAggregator(const Rings* rings, Network* network,
                         const A* aggregate, Options options = {})
      : rings_(rings),
        network_(network),
        aggregate_(aggregate),
        options_(options) {
    TD_CHECK(rings != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(rings->num_nodes(), network->size());
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId base = rings_->base();
    PrepareScratch();
    EnsureCsr();
    edge_delivered_.Reset(csr_.num_edges());

    for (int level = rings_->max_level(); level >= 1; --level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if constexpr (SoaFmSynopsis<A>) {
          // out = self | inbox in one pass over the arena slot
          // (MakeSynopsisInto + Fuse as a word-wide OR).
          const uint32_t* self = SelfBank(v, epoch);
          const uint32_t* in = syn_inbox_.Slot(v);
          for (size_t i = 0; i < syn_words_; ++i)
            out_syn_[i] = self[i] | in[i];
        } else {
          typename A::Synopsis& syn = *scratch_syn_;
          MakeSelfSynopsis(v, epoch, &syn);
          aggregate_->Fuse(&syn, obj_inbox_[v]);
          // The inbox is dead once fused. Resetting it here lets synopses
          // that own heap blocks (frequent items' class banks) free them
          // at last use; fixed-geometry synopses keep their buffers.
          obj_inbox_[v] = *empty_synopsis_;
        }

        // Contrib bank: inbox copy + own-id insertion (OR commutes, so the
        // order of the two does not matter).
        std::memcpy(out_contrib_.data(), contrib_inbox_.Slot(v),
                    contrib_words_ * sizeof(uint32_t));
        FmSketch::AddKeyBits(v, options_.contrib_seed, out_contrib_.data(),
                             contrib_words_);

        size_t bytes = OutSynopsisBytes() +
                       BankRleBytes(out_contrib_.data(), contrib_words_) +
                       kMessageHeaderBytes;
        network_->CountTransmission(v, bytes);
        const uint32_t edge_end = csr_.offsets[v + 1];
        for (uint32_t e = csr_.offsets[v]; e < edge_end; ++e) {
          const NodeId w = csr_.targets[e];
          if (network_->Deliver(v, w, epoch)) {
            if constexpr (SoaFmSynopsis<A>) {
              OrWords(syn_inbox_.Slot(w), out_syn_.data(), syn_words_);
            } else {
              aggregate_->Fuse(&obj_inbox_[w], *scratch_syn_);
            }
            OrWords(contrib_inbox_.Slot(w), out_contrib_.data(),
                    contrib_words_);
            edge_delivered_.Set(e);
          }
        }
      }
    }

    Outcome out;
    if constexpr (SoaFmSynopsis<A>) {
      eval_syn_->Clear();
      eval_syn_->OrBits(syn_inbox_.Slot(base), syn_words_);
      out.result = aggregate_->EvaluateSynopsis(*eval_syn_);
    } else {
      out.result = aggregate_->EvaluateSynopsis(obj_inbox_[base]);
    }
    out.true_contributing = ComputeContributors(base);
    contrib_eval_.Clear();
    contrib_eval_.OrBits(contrib_inbox_.Slot(base), contrib_words_);
    out.reported_contributing = contrib_eval_.Estimate();
    if (options_.capture_root) {
      if constexpr (SoaFmSynopsis<A>) {
        root_synopsis_ = &*eval_syn_;
      } else {
        root_synopsis_ = &obj_inbox_[base];
      }
    }
    return out;
  }

  /// Drops the cached CSR adjacency; the delta caches stay valid (a node's
  /// self synopsis does not depend on topology).
  void OnTopologyChanged() { csr_valid_ = false; }

  /// The last RunEpoch's fused root synopsis (points into the epoch
  /// scratch), or nullptr before the first captured epoch (or without
  /// Options::capture_root). Valid until the next RunEpoch.
  const typename A::Synopsis* root_synopsis() const { return root_synopsis_; }

  /// Cumulative count of self-synopsis recomputes (delta-cache misses);
  /// nodes whose SelfSynopsisKey was unchanged replayed their cached bank
  /// and are not counted.
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

  const Rings& rings() const { return *rings_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
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

  /// Generic-path self synopsis with the same delta-cache semantics.
  void MakeSelfSynopsis(NodeId v, uint32_t epoch, typename A::Synopsis* out) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      if (self_cache_.valid.Test(v) && self_cache_.key[v] == key) {
        *out = self_cache_.state[v];
        return;
      }
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      self_cache_.state[v] = *out;
      self_cache_.key[v] = key;
      self_cache_.valid.Set(v);
      ++nodes_reprocessed_;
    } else {
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      ++nodes_reprocessed_;
    }
  }

  size_t OutSynopsisBytes() {
    if constexpr (SoaFmSynopsis<A>) {
      return BankRleBytes(out_syn_.data(), syn_words_);
    } else {
      return aggregate_->SynopsisBytes(*scratch_syn_);
    }
  }

  /// A node contributed iff some delivered upstream edge chain reaches the
  /// base.
  /// Every upstream edge lands exactly one ring closer to the base, so one
  /// ascending-level pass settles reachability. Returns the count.
  size_t ComputeContributors(NodeId base) {
    contributors_.Clear();
    size_t contributing = 0;
    for (int level = 1; level <= rings_->max_level(); ++level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        const uint32_t edge_end = csr_.offsets[v + 1];
        bool reached = false;
        for (uint32_t e = csr_.offsets[v]; e < edge_end && !reached; ++e) {
          if (!edge_delivered_.Test(e)) continue;
          const NodeId w = csr_.targets[e];
          if (w == base || contributors_.Test(w)) reached = true;
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
    const size_t n = rings_->num_nodes();
    if (prepared_n_ == n) {
      ++scratch_stats_.reuses;
    } else {
      ++scratch_stats_.builds;
      scratch_syn_.emplace(aggregate_->EmptySynopsis());
      contrib_words_ = static_cast<size_t>(FmSketch::kDefaultBitmaps);
      out_contrib_.assign(contrib_words_, 0);
      contrib_eval_ =
          FmSketch(FmSketch::kDefaultBitmaps, options_.contrib_seed);
      contributors_ = NodeSet(n);
      if constexpr (SoaFmSynopsis<A>) {
        eval_syn_.emplace(aggregate_->EmptySynopsis());
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
          self_cache_.Reset(n, *empty_synopsis_);
        }
      }
      prepared_n_ = n;
    }
    if constexpr (SoaFmSynopsis<A>) {
      syn_inbox_.Reset(n, syn_words_);
    } else {
      obj_inbox_.assign(n, *empty_synopsis_);
    }
    contrib_inbox_.Reset(n, contrib_words_);
  }

  void EnsureCsr() {
    if (csr_valid_) return;
    csr_.Build(*rings_, network_->connectivity());
    csr_valid_ = true;
  }

  const Rings* rings_;
  Network* network_;
  const A* aggregate_;
  Options options_;

  UpstreamCsr csr_;
  bool csr_valid_ = false;
  size_t prepared_n_ = 0;
  size_t syn_words_ = 0;
  size_t contrib_words_ = 0;

  // FM-synopsis path state (unused, empty, on the generic path).
  BankArena syn_inbox_;
  std::vector<uint32_t> out_syn_;
  std::optional<typename A::Synopsis> eval_syn_;
  BankArena self_banks_;
  std::vector<uint64_t> self_key_;
  BitVec self_valid_;

  // Generic-synopsis path state (unused on the FM path).
  std::optional<typename A::Synopsis> empty_synopsis_;
  std::vector<typename A::Synopsis> obj_inbox_;
  SelfStateCache<typename A::Synopsis> self_cache_;

  // Shared state.
  BankArena contrib_inbox_;
  std::vector<uint32_t> out_contrib_;
  FmSketch contrib_eval_{FmSketch::kDefaultBitmaps, 0};
  BitVec edge_delivered_;
  NodeSet contributors_;
  std::optional<typename A::Synopsis> scratch_syn_;
  ScratchStats scratch_stats_;
  uint64_t nodes_reprocessed_ = 0;
  const typename A::Synopsis* root_synopsis_ = nullptr;
};

}  // namespace td

#endif  // TD_CORE_SOA_MULTIPATH_H_
