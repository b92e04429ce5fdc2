#include "agg/query_set.h"

namespace td {

RootState SliceQueryRoot(const RootState& engine_root, size_t query,
                         bool query_set) {
  if (!query_set) {
    TD_DCHECK(query == 0);
    return engine_root;
  }
  RootState out;
  if (engine_root.tree_partial != nullptr) {
    const auto* p =
        static_cast<const QuerySetTreePartial*>(engine_root.tree_partial);
    TD_CHECK_LT(query, p->q.size());
    out.tree_partial = p->q[query].get();
  }
  if (engine_root.synopsis != nullptr) {
    const auto* s = static_cast<const QuerySetSynopsis*>(engine_root.synopsis);
    TD_CHECK_LT(query, s->q.size());
    out.synopsis = s->q[query].get();
  }
  return out;
}

void QueryRootState::Assign(const RootState& root) {
  if (root.tree_partial == nullptr) {
    tree_ = TreeBox();
  } else if (tree_.get() != nullptr) {
    ops_->AssignTreePartial(tree_.get(), root.tree_partial);
  } else {
    tree_ = TreeBox(ops_, ops_->CloneTreePartial(root.tree_partial));
  }
  if (root.synopsis == nullptr) {
    synopsis_ = SynopsisBox();
  } else if (synopsis_.get() != nullptr) {
    ops_->AssignSynopsis(synopsis_.get(), root.synopsis);
  } else {
    synopsis_ = SynopsisBox(ops_, ops_->CloneSynopsis(root.synopsis));
  }
}

void QueryRootState::Merge(const RootState& newer) {
  if (newer.tree_partial != nullptr) {
    if (tree_.get() == nullptr) tree_ = TreeBox(ops_);
    ops_->MergeTree(tree_.get(), newer.tree_partial);
  }
  if (newer.synopsis != nullptr) {
    if (synopsis_.get() == nullptr) synopsis_ = SynopsisBox(ops_);
    ops_->Fuse(synopsis_.get(), newer.synopsis);
  }
}

double QueryRootState::Evaluate() const {
  if (tree_.get() != nullptr && synopsis_.get() != nullptr) {
    return ops_->EvaluateCombined(tree_.get(), synopsis_.get());
  }
  if (tree_.get() != nullptr) return ops_->EvaluateTree(tree_.get());
  if (synopsis_.get() != nullptr) {
    return ops_->EvaluateSynopsis(synopsis_.get());
  }
  return ops_->EvaluateTree(TreeBox(ops_).get());
}

QuerySetAggregate::QuerySetAggregate(
    std::vector<std::unique_ptr<QueryOps>> queries, size_t primary)
    : queries_(std::move(queries)), primary_(primary) {
  TD_CHECK_GT(queries_.size(), 0u);
  TD_CHECK_LT(primary_, queries_.size());
  for (const auto& q : queries_) TD_CHECK(q != nullptr);
}

QuerySetAggregate::TreePartial QuerySetAggregate::MakeTreePartial(
    NodeId node, uint32_t epoch) const {
  TreePartial p = EmptyTreePartial();
  MakeTreePartialInto(&p, node, epoch);
  return p;
}

QuerySetAggregate::TreePartial QuerySetAggregate::EmptyTreePartial() const {
  TreePartial p;
  p.q.reserve(queries_.size());
  for (const auto& ops : queries_) p.q.emplace_back(ops.get());
  return p;
}

void QuerySetAggregate::MergeTree(TreePartial* into,
                                  const TreePartial& from) const {
  TD_DCHECK(into->q.size() == queries_.size());
  TD_DCHECK(from.q.size() == queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->MergeTree(into->q[i].get(), from.q[i].get());
  }
}

void QuerySetAggregate::FinalizeTreePartial(TreePartial* p,
                                            NodeId node) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->FinalizeTreePartial(p->q[i].get(), node);
  }
}

QuerySetAggregate::Synopsis QuerySetAggregate::MakeSynopsis(
    NodeId node, uint32_t epoch) const {
  Synopsis s = EmptySynopsis();
  MakeSynopsisInto(&s, node, epoch);
  return s;
}

QuerySetAggregate::Synopsis QuerySetAggregate::EmptySynopsis() const {
  Synopsis s;
  s.q.reserve(queries_.size());
  for (const auto& ops : queries_) s.q.emplace_back(ops.get());
  return s;
}

void QuerySetAggregate::Fuse(Synopsis* into, const Synopsis& from) const {
  TD_DCHECK(into->q.size() == queries_.size());
  TD_DCHECK(from.q.size() == queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->Fuse(into->q[i].get(), from.q[i].get());
  }
}

QuerySetAggregate::Synopsis QuerySetAggregate::Convert(
    const TreePartial& p) const {
  Synopsis s;
  s.q.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    s.q.emplace_back(queries_[i].get(),
                     queries_[i]->ConvertTreePartial(p.q[i].get()));
  }
  return s;
}

void QuerySetAggregate::MakeTreePartialInto(TreePartial* out, NodeId node,
                                            uint32_t epoch) const {
  TD_DCHECK(out->q.size() == queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->MakeTreePartialInto(out->q[i].get(), node, epoch);
  }
}

void QuerySetAggregate::MakeSynopsisInto(Synopsis* out, NodeId node,
                                         uint32_t epoch) const {
  TD_DCHECK(out->q.size() == queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->MakeSynopsisInto(out->q[i].get(), node, epoch);
  }
}

void QuerySetAggregate::FuseConverted(Synopsis* into,
                                      const TreePartial& p) const {
  TD_DCHECK(into->q.size() == queries_.size());
  TD_DCHECK(p.q.size() == queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    queries_[i]->FuseConverted(into->q[i].get(), p.q[i].get());
  }
}

QuerySetAggregate::Result QuerySetAggregate::EvaluateTree(
    const TreePartial& p) const {
  Result r;
  r.primary = primary_;
  r.values.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    r.values.push_back(queries_[i]->EvaluateTree(p.q[i].get()));
  }
  return r;
}

QuerySetAggregate::Result QuerySetAggregate::EvaluateSynopsis(
    const Synopsis& s) const {
  Result r;
  r.primary = primary_;
  r.values.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    r.values.push_back(queries_[i]->EvaluateSynopsis(s.q[i].get()));
  }
  return r;
}

QuerySetAggregate::Result QuerySetAggregate::EvaluateCombined(
    const TreePartial& p, const Synopsis& s) const {
  Result r;
  r.primary = primary_;
  r.values.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    r.values.push_back(
        queries_[i]->EvaluateCombined(p.q[i].get(), s.q[i].get()));
  }
  return r;
}

size_t QuerySetAggregate::TreeBytes(const TreePartial& p) const {
  size_t bytes = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    bytes += queries_[i]->TreeBytes(p.q[i].get());
  }
  return bytes;
}

size_t QuerySetAggregate::SynopsisBytes(const Synopsis& s) const {
  size_t bytes = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    bytes += queries_[i]->SynopsisBytes(s.q[i].get());
  }
  return bytes;
}

}  // namespace td
