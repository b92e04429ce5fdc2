#include "freq/freq_aggregate.h"

#include "util/check.h"

namespace td {

FrequentItemsAggregate::FrequentItemsAggregate(
    const ItemSource* items, const Tree* tree,
    std::shared_ptr<PrecisionGradient> gradient,
    MultipathFreqParams mp_params)
    : items_(items),
      tree_(tree),
      gradient_(std::move(gradient)),
      mp_(mp_params) {
  TD_CHECK(items_ != nullptr);
  TD_CHECK(tree_ != nullptr);
  TD_CHECK(gradient_ != nullptr);
  TD_CHECK_EQ(items_->num_nodes(), tree_->num_nodes());
  height_ = tree_->ComputeHeights();
}

FrequentItemsAggregate::TreePartial FrequentItemsAggregate::MakeTreePartial(
    NodeId node, uint32_t /*epoch*/) const {
  // The frequent-items query is one-shot over each node's collection
  // (Section 6's formulation); epochs re-run it over the same data, which
  // the engines replay from cache while the collection's version holds.
  TreePartial p;
  p.summary = LocalSummary(items_->collection(node));
  p.origin = node;
  return p;
}

void FrequentItemsAggregate::MergeTree(TreePartial* into,
                                       const TreePartial& from) const {
  MergeSummaries(&into->summary, from.summary);
}

void FrequentItemsAggregate::FinalizeTreePartial(TreePartial* p,
                                                 NodeId node) const {
  int h = height_[node];
  if (h < 1) h = 1;  // the base station may be childless in a tiny network
  PruneSummary(&p->summary, *gradient_, h);
  p->origin = node;
}

FrequentItemsAggregate::Synopsis FrequentItemsAggregate::MakeSynopsis(
    NodeId node, uint32_t /*epoch*/) const {
  return mp_.Generate(node, items_->collection(node));
}

void FrequentItemsAggregate::Fuse(Synopsis* into, const Synopsis& from) const {
  mp_.Fuse(into, from);
}

FrequentItemsAggregate::Synopsis FrequentItemsAggregate::Convert(
    const TreePartial& p) const {
  TD_CHECK_NE(p.origin, 0xffffffffu);
  return mp_.ConvertSummary(p.origin, p.summary);
}

FrequentItemsAggregate::Result FrequentItemsAggregate::EvaluateTree(
    const TreePartial& p) const {
  Result r;
  r.counts.insert(p.summary.items.begin(), p.summary.items.end());
  r.total = static_cast<double>(p.summary.n);
  return r;
}

FrequentItemsAggregate::Result FrequentItemsAggregate::EvaluateSynopsis(
    const Synopsis& s) const {
  MultipathFreq::Evaluation ev = mp_.Evaluate(s);
  Result r;
  r.counts = std::move(ev.counts);
  r.total = ev.total;
  return r;
}

FrequentItemsAggregate::Result FrequentItemsAggregate::EvaluateCombined(
    const TreePartial& p, const Synopsis& s) const {
  // Final error <= tree error (eps_a) + multi-path error (eps_b),
  // Section 6.3.
  Result r = EvaluateSynopsis(s);
  for (const auto& [u, est] : p.summary.items) r.counts[u] += est;
  r.total += static_cast<double>(p.summary.n);
  return r;
}

size_t FrequentItemsAggregate::TreeBytes(const TreePartial& p) const {
  return p.summary.Words() * sizeof(uint32_t);
}

size_t FrequentItemsAggregate::SynopsisBytes(const Synopsis& s) const {
  return mp_.EncodedBytes(s);
}

}  // namespace td
