// The federation coordinator: merges per-gateway root states into global
// per-query estimates using the existing Aggregate concept -- no new
// algebra, no radio traffic, pure top-tier computation.
//
//   sensor --radio--> gateway Engine --root state--> Coordinator --> global
//
// Every gateway runs a QuerySetAggregate engine over its shard, so its
// root state is one payload per query (QuerySetTreePartial /
// QuerySetSynopsis). The coordinator folds those payloads with the same
// MergeTree / Fuse the in-network fold used. Correctness rests on the
// merge-order-invariance contract (DESIGN.md "Hierarchical federation"):
// registry merges are commutative and associative over exactly-
// representable state, so regrouping the global fold by gateway -- in any
// order -- reproduces the single-engine root state bit-for-bit.
//
// Mixed-strategy federations merge naturally: tree-strategy gateways
// contribute exact partials, synopsis-diffusion gateways contribute fused
// synopses, Tributary-Delta gateways both. Each query's merged state is a
// QueryRootState (agg/query_set.h), whose live sides -- the sides that
// arrived -- pick EvaluateTree / EvaluateSynopsis / EvaluateCombined,
// exactly as in the windows layer.
//
// Q-digest queries (quant/qdigest_aggregate.h) ride through unchanged:
// per-gateway digests merge losslessly (node-wise count addition), so the
// coordinator's answer is order-invariant over gateways. Note the weaker
// contract vs exact kinds: each gateway compresses at ITS OWN per-hop
// points, so the merged digest need not be bit-identical to a single
// engine run over the union -- only the rank-error bound is preserved
// (counts are subadditive: sum of floor(n_i / k) <= floor(n / k) slack
// per bit level).
#ifndef TD_FED_COORDINATOR_H_
#define TD_FED_COORDINATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "agg/query_set.h"

namespace td {

/// A merged coordinator-tier state: one root state per query, index-
/// aligned with the federation's query list; state[i].Evaluate() is query
/// i's merged answer.
using FedState = std::vector<QueryRootState>;

/// Merges gateway root states and evaluates global per-query answers.
/// Owns one QueryOps per query (index-aligned with the federation's query
/// list) and counts every payload merge and merged payload byte, so
/// benches can show that coordinator work scales with computation groups,
/// not subscribers.
class Coordinator {
 public:
  explicit Coordinator(std::vector<std::unique_ptr<QueryOps>> queries);

  size_t num_queries() const { return queries_.size(); }
  const QueryOps& ops(size_t query) const { return *queries_[query]; }

  /// A fresh state: one root state per query, no sides live yet (a
  /// never-merged state answers as an empty aggregation).
  FedState MakeState() const;

  /// state := state (+) root, where `root` is one gateway's query-set
  /// engine root state (Engine::root_state; valid until that gateway's
  /// next epoch -- merge before stepping on). Per query, MergeTree of the
  /// partial side and Fuse of the synopsis side, whichever the root
  /// carries. Gateway roots arrive already finalized (FinalizeTreePartial
  /// ran at each gateway's base), so no further finalize is needed --
  /// registry finalizers only stamp the subtree origin, which evaluation
  /// ignores.
  void Merge(FedState* state, const RootState& root);

  /// Payload merges performed (one per query-side-gateway combine) and
  /// payload bytes merged, cumulative over the coordinator's lifetime.
  size_t merges() const { return merges_; }
  size_t merged_bytes() const { return merged_bytes_; }

 private:
  std::vector<std::unique_ptr<QueryOps>> queries_;
  size_t merges_ = 0;
  size_t merged_bytes_ = 0;
};

}  // namespace td

#endif  // TD_FED_COORDINATOR_H_
