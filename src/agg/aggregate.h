// The Aggregate concept: what an aggregate must provide to be computed in
// the Tributary-Delta framework (Section 5 of the paper).
//
// An aggregate supplies three things:
//   1. a *tree algorithm*  -- partial results combined up an aggregation
//      tree (MakeTreePartial / MergeTree / FinalizeTreePartial);
//   2. a *multi-path algorithm* in the synopsis-diffusion SG/SF/SE form
//      (MakeSynopsis / Fuse / EvaluateSynopsis);
//   3. a *conversion function* (Convert) that turns a tree partial result
//      into a synopsis the multi-path scheme equates with the same inputs,
//      so a multi-path node can consume tributary outputs obliviously.
//
// The one aggregation kernel (src/core/: SoaTributaryDeltaAggregator) is
// templated over this concept; TAG uses only the tree algorithm, synopsis
// diffusion only the multi-path one, Tributary-Delta all three.
#ifndef TD_AGG_AGGREGATE_H_
#define TD_AGG_AGGREGATE_H_

#include <concepts>
#include <cstdint>
#include <cstddef>

#include "net/deployment.h"

namespace td {

/// Requirements on an aggregate type usable with the aggregation engines.
///
/// Semantics the engines rely on:
///  * MergeTree must be exact over disjoint input sets (tree inputs never
///    overlap thanks to the tree structure).
///  * Fuse must be order-insensitive AND duplicate-insensitive: fusing the
///    same synopsis twice must give the same result as fusing it once.
///  * Convert(p) must be a synopsis that EvaluateSynopsis maps to (an
///    approximation of) EvaluateTree(p), valid to fuse with any synopsis
///    whose underlying inputs are disjoint from p's.
///  * FinalizeTreePartial(p, node) is called once per node after all child
///    partials are merged and before the partial is transmitted (or
///    evaluated, at the root). Aggregates with per-node behavior (e.g. the
///    frequent-items precision gradient, which prunes by node height) hook
///    in here; simple aggregates make it a no-op.
template <typename A>
concept Aggregate = requires(const A a, typename A::TreePartial p,
                             typename A::Synopsis s, NodeId node,
                             uint32_t epoch) {
  typename A::TreePartial;
  typename A::Synopsis;
  typename A::Result;
  { a.MakeTreePartial(node, epoch) } -> std::same_as<typename A::TreePartial>;
  { a.EmptyTreePartial() } -> std::same_as<typename A::TreePartial>;
  { a.MergeTree(&p, p) };
  { a.FinalizeTreePartial(&p, node) };
  { a.MakeSynopsis(node, epoch) } -> std::same_as<typename A::Synopsis>;
  { a.EmptySynopsis() } -> std::same_as<typename A::Synopsis>;
  { a.Fuse(&s, s) };
  { a.Convert(p) } -> std::same_as<typename A::Synopsis>;
  { a.EvaluateTree(p) } -> std::same_as<typename A::Result>;
  { a.EvaluateSynopsis(s) } -> std::same_as<typename A::Result>;
  { a.EvaluateCombined(p, s) } -> std::same_as<typename A::Result>;
  { a.TreeBytes(p) } -> std::convertible_to<size_t>;
  { a.SynopsisBytes(s) } -> std::convertible_to<size_t>;
};

/// Per-message fixed overhead charged by the engines (sender id, epoch,
/// piggybacked contributing count).
inline constexpr size_t kMessageHeaderBytes = 8;

// ---------------------------------------------------------------------------
// Reset-in-place dispatch. Aggregates may optionally provide *Into /
// FuseConverted members that write into caller-owned storage instead of
// returning freshly constructed (heap-allocating) values; the engines call
// through these helpers, which fall back to the constructing form when an
// aggregate doesn't opt in. Results are bit-identical either way -- only
// the allocation behavior differs.

/// scratch := the synopsis MakeSynopsis(node, epoch) would return. `out`
/// must hold a synopsis of the aggregate's geometry (e.g. from
/// EmptySynopsis()) so the in-place form can recycle its buffers.
template <Aggregate A>
inline void MakeSynopsisInto(const A& a, typename A::Synopsis* out,
                             NodeId node, uint32_t epoch) {
  if constexpr (requires { a.MakeSynopsisInto(out, node, epoch); }) {
    a.MakeSynopsisInto(out, node, epoch);
  } else {
    *out = a.MakeSynopsis(node, epoch);
  }
}

/// scratch := the partial MakeTreePartial(node, epoch) would return.
template <Aggregate A>
inline void MakeTreePartialInto(const A& a, typename A::TreePartial* out,
                                NodeId node, uint32_t epoch) {
  if constexpr (requires { a.MakeTreePartialInto(out, node, epoch); }) {
    a.MakeTreePartialInto(out, node, epoch);
  } else {
    *out = a.MakeTreePartial(node, epoch);
  }
}

/// Fuse(into, Convert(p)) without materializing the converted synopsis.
template <Aggregate A>
inline void FuseConverted(const A& a, typename A::Synopsis* into,
                          const typename A::TreePartial& p) {
  if constexpr (requires { a.FuseConverted(into, p); }) {
    a.FuseConverted(into, p);
  } else {
    a.Fuse(into, a.Convert(p));
  }
}

/// Numerator/denominator decomposition of a root state's scalar answer, for
/// the exponentially-decayed window path (window/): the decayed value is
/// EWMA(num) / EWMA(den), which for ratio aggregates (Average) decays the
/// invertible Sum and Count components separately instead of smearing the
/// ratio. The default is the answer itself over a denominator of 1 (so the
/// decayed value is a plain EWMA of per-epoch answers); aggregates with a
/// genuine ratio structure provide an EvaluateWindowComponents member.
/// Either side pointer may be null when the engine strategy does not
/// surface it (tree engines have no root synopsis, multi-path engines no
/// root partial).
template <Aggregate A>
  requires std::convertible_to<typename A::Result, double>
inline void EvaluateWindowComponents(const A& a,
                                     const typename A::TreePartial* p,
                                     const typename A::Synopsis* s,
                                     double* num, double* den) {
  if constexpr (requires { a.EvaluateWindowComponents(p, s, num, den); }) {
    a.EvaluateWindowComponents(p, s, num, den);
  } else {
    *den = 1.0;
    if (p != nullptr && s != nullptr) {
      *num = static_cast<double>(a.EvaluateCombined(*p, *s));
    } else if (p != nullptr) {
      *num = static_cast<double>(a.EvaluateTree(*p));
    } else if (s != nullptr) {
      *num = static_cast<double>(a.EvaluateSynopsis(*s));
    } else {
      *num = 0.0;
    }
  }
}

}  // namespace td

#endif  // TD_AGG_AGGREGATE_H_
