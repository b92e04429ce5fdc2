// QDigestAggregate: the q-digest as a registry aggregate. TreePartial and
// Synopsis are both the digest itself, so the same state runs the exact
// tree algorithm, synopsis diffusion, and the Tributary-Delta hybrid, and
// composes into QuerySetAggregate payload boxes and base-station windows
// unchanged. One digest answers three derived query kinds (kQuantileQd,
// kHistogramQd, kRangeCountQd) -- the Answer enum picks which scalar
// Evaluate* reports.
//
// Byte model: every hop compresses before transmitting
// (FinalizeTreePartial), and TreeBytes/SynopsisBytes charge the COMPRESSED
// wire encoding (a copy is compressed when the state isn't already), so
// the paper's message-size accounting sees the O(k) digest a real radio
// would carry, never the lossless in-memory form.
//
// Caveat inherited from the digest (see quant/qdigest.h): Fuse adds
// counts, so multi-path duplication inflates weights; the eps = bits / k
// rank bound is guaranteed on duplicate-free fold trees (TAG, federation,
// windows), while SD/TD delta regions degrade gracefully.
#ifndef TD_QUANT_QDIGEST_AGGREGATE_H_
#define TD_QUANT_QDIGEST_AGGREGATE_H_

#include <cstddef>
#include <cstdint>

#include "agg/aggregate.h"
#include "agg/aggregates.h"
#include "net/deployment.h"
#include "quant/qdigest.h"

namespace td {

/// Parameters shared by the three q-digest query kinds; zero/default
/// fields are filled by api_internal::ResolveQuery.
struct QDigestParams {
  int bits = 16;  // value domain [0, 2^bits)
  int k = 32;     // compression parameter; rank error <= bits / k

  // kQuantile answers only.
  double quantile_p = 0.5;

  // kRangeCount answers only (inclusive bounds).
  uint64_t range_lo = 0;
  uint64_t range_hi = 0;

  // kHistogramMode answers only; power of two within the domain.
  int histogram_buckets = 8;
};

class QDigestAggregate {
 public:
  /// Which scalar the shared digest is evaluated into.
  enum class Answer { kQuantile, kRangeCount, kHistogramMode };

  using TreePartial = QDigest;
  using Synopsis = QDigest;
  using Result = double;

  QDigestAggregate(UintReadingFn reading, Answer answer,
                   const QDigestParams& params);

  TreePartial MakeTreePartial(NodeId node, uint32_t epoch) const {
    QDigest d(params_.bits, params_.k);
    d.Add(reading_(node, epoch));
    return d;
  }
  TreePartial EmptyTreePartial() const {
    return QDigest(params_.bits, params_.k);
  }
  void MergeTree(TreePartial* into, const TreePartial& from) const {
    into->Merge(from);
  }
  /// Per-hop compression: runs after child partials merge and before the
  /// partial is transmitted (or evaluated at the root), bounding every
  /// message and the root state to O(k) nodes.
  void FinalizeTreePartial(TreePartial* p, NodeId /*node*/) const {
    p->Compress();
  }

  Synopsis MakeSynopsis(NodeId node, uint32_t epoch) const {
    return MakeTreePartial(node, epoch);
  }
  Synopsis EmptySynopsis() const { return EmptyTreePartial(); }
  /// Lossless node-wise addition: order-insensitive, so any fuse
  /// permutation is bit-identical (NOT duplicate-insensitive; see header).
  void Fuse(Synopsis* into, const Synopsis& from) const {
    into->Merge(from);
  }
  Synopsis Convert(const TreePartial& p) const { return p; }

  Result EvaluateTree(const TreePartial& p) const { return Eval(p); }
  Result EvaluateSynopsis(const Synopsis& s) const { return Eval(s); }
  Result EvaluateCombined(const TreePartial& p, const Synopsis& s) const {
    QDigest merged = p;
    merged.Merge(s);
    return Eval(merged);
  }

  /// Compressed wire size (idempotent on already-compressed state).
  size_t TreeBytes(const TreePartial& p) const { return WireBytes(p); }
  size_t SynopsisBytes(const Synopsis& s) const { return WireBytes(s); }

  /// Epoch-delta identity for the engine core: the self digest is a pure
  /// function of (node, reading), so an unchanged reading replays the
  /// cached self state through the engines' typed-synopsis path.
  uint64_t SelfSynopsisKey(NodeId node, uint32_t epoch) const {
    return reading_(node, epoch);
  }

  Answer answer() const { return answer_; }
  const QDigestParams& params() const { return params_; }

 private:
  double Eval(const QDigest& d) const;
  size_t WireBytes(const QDigest& d) const;

  UintReadingFn reading_;
  Answer answer_;
  QDigestParams params_;
};

static_assert(Aggregate<QDigestAggregate>,
              "QDigestAggregate must satisfy the Aggregate concept so all "
              "five strategies and the query-set adapter can run it");

}  // namespace td

#endif  // TD_QUANT_QDIGEST_AGGREGATE_H_
