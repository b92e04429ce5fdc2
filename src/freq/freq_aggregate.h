// Frequent items as a Tributary-Delta Aggregate (Section 6.3).
//
// Tree part: Algorithm 1 summaries pruned by a precision gradient keyed on
// the node's height in the aggregation tree (eps_a budget). Multi-path
// part: Algorithm 2 class synopses (eps_b budget). Conversion: the
// multi-path SG thresholding applied to the summary's estimates, keyed by
// the unique subtree root. Given a user error eps, run with
// eps_a + eps_b = eps; the final error is at most the sum of the parts.
#ifndef TD_FREQ_FREQ_AGGREGATE_H_
#define TD_FREQ_FREQ_AGGREGATE_H_

#include <map>
#include <memory>
#include <vector>

#include "freq/item_source.h"
#include "freq/multipath_freq.h"
#include "freq/precision_gradient.h"
#include "freq/summary.h"
#include "topology/tree.h"

namespace td {

/// Tree partial result: a summary plus its (unique) subtree root.
struct FreqTreePartial {
  Summary summary;
  NodeId origin = 0xffffffffu;
};

/// Final evaluation: eps-deficient counts plus the estimated total N.
struct FreqResult {
  std::map<Item, double> counts;
  double total = 0.0;
};

class FrequentItemsAggregate {
 public:
  using TreePartial = FreqTreePartial;
  using Synopsis = FreqSynopsisBank;
  using Result = FreqResult;

  /// `items`, `tree` and `gradient` must outlive the aggregate. Node
  /// heights come from `tree` (the rings-constrained aggregation tree).
  FrequentItemsAggregate(const ItemSource* items, const Tree* tree,
                         std::shared_ptr<PrecisionGradient> gradient,
                         MultipathFreqParams mp_params);

  TreePartial MakeTreePartial(NodeId node, uint32_t epoch) const;
  TreePartial EmptyTreePartial() const { return TreePartial{}; }
  void MergeTree(TreePartial* into, const TreePartial& from) const;
  void FinalizeTreePartial(TreePartial* p, NodeId node) const;

  Synopsis MakeSynopsis(NodeId node, uint32_t epoch) const;
  Synopsis EmptySynopsis() const { return mp_.EmptyBank(); }
  void Fuse(Synopsis* into, const Synopsis& from) const;
  Synopsis Convert(const TreePartial& p) const;

  Result EvaluateTree(const TreePartial& p) const;
  Result EvaluateSynopsis(const Synopsis& s) const;
  Result EvaluateCombined(const TreePartial& p, const Synopsis& s) const;

  size_t TreeBytes(const TreePartial& p) const;
  size_t SynopsisBytes(const Synopsis& s) const;

  /// Epoch-delta identity key (see core/soa_traits.h): a node's self
  /// partial and synopsis are pure functions of its item collection, so
  /// the collection's version keys the engines' replay caches.
  uint64_t SelfSynopsisKey(NodeId node, uint32_t /*epoch*/) const {
    return items_->version(node);
  }

  const MultipathFreq& multipath() const { return mp_; }
  const PrecisionGradient& gradient() const { return *gradient_; }

 private:
  const ItemSource* items_;  // not owned
  const Tree* tree_;         // not owned
  std::shared_ptr<PrecisionGradient> gradient_;
  MultipathFreq mp_;
  std::vector<int> height_;
};

}  // namespace td

#endif  // TD_FREQ_FREQ_AGGREGATE_H_
