#include "fed/coordinator.h"

#include <utility>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

Coordinator::Coordinator(std::vector<std::unique_ptr<QueryOps>> queries)
    : queries_(std::move(queries)) {
  TD_CHECK_MSG(!queries_.empty(),
               "a coordinator needs at least one query to merge");
  for (const std::unique_ptr<QueryOps>& q : queries_) {
    TD_CHECK(q != nullptr);
  }
}

FedState Coordinator::MakeState() const {
  FedState st;
  st.reserve(queries_.size());
  for (const std::unique_ptr<QueryOps>& q : queries_) st.emplace_back(q.get());
  return st;
}

void Coordinator::Merge(FedState* state, const RootState& root) {
  TD_PROFILE_SCOPE(obs::Phase::kFedMerge);
  TD_CHECK(state != nullptr);
  TD_CHECK_EQ(state->size(), queries_.size());
  TD_CHECK_MSG(root.tree_partial != nullptr || root.synopsis != nullptr,
               "gateway root state has no sides: merge a gateway only "
               "after it has run an epoch");
  for (size_t i = 0; i < queries_.size(); ++i) {
    const RootState q = SliceQueryRoot(root, i, /*query_set=*/true);
    (*state)[i].Merge(q);
    if (q.tree_partial != nullptr) {
      ++merges_;
      merged_bytes_ += queries_[i]->TreeBytes(q.tree_partial);
    }
    if (q.synopsis != nullptr) {
      ++merges_;
      merged_bytes_ += queries_[i]->SynopsisBytes(q.synopsis);
    }
  }
}

}  // namespace td
