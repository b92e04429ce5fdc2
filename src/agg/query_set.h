// The multi-query adapter: N concurrent aggregates computed in ONE pass of
// the aggregation engines over one epoch of radio traffic.
//
// The paper's framework (Section 5) makes aggregates pluggable; real base
// stations run many standing queries (Count, Sum, Avg, quantiles, ...) over
// the *same* epoch of sensor traffic. QuerySetAggregate satisfies the
// Aggregate concept itself, so the kernel computes a whole query set under
// every strategy with its hot loops unchanged: its TreePartial / Synopsis are
// per-query payload vectors, and every concept operation maps element-wise
// onto the per-query operations behind a small vtable (QueryOps).
//
// Byte accounting follows the paper's message-size model: TreeBytes /
// SynopsisBytes return the SUM of the per-query payload bytes, while the
// engines keep charging kMessageHeaderBytes (and the piggybacked
// contributing-count sketch, in multi-path mode) once per physical
// transmission -- so the fixed per-message overhead is amortized across the
// query set and the per-query cost of a width-N set drops below N
// independent runs.
//
// A one-query set is bit-identical to running the wrapped aggregate
// directly: the element-wise dispatch preserves the exact call order of
// every underlying operation, payload bytes are the same sum, and delivery
// draws never depend on the aggregate (pinned by tests/queryset_test.cc).
#ifndef TD_AGG_QUERY_SET_H_
#define TD_AGG_QUERY_SET_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "net/deployment.h"
#include "util/check.h"

namespace td {

/// Type-erased operations of one member query: the Aggregate concept over
/// opaque payload pointers, plus lifetime management so payload vectors can
/// clone / assign / destroy elements without knowing their types. Assign
/// writes into existing storage (the engines' scratch reuse depends on
/// element assignment recycling heap buffers, e.g. sketch word banks).
class QueryOps {
 public:
  virtual ~QueryOps() = default;

  // Tree partial lifetime + algorithm.
  virtual void* NewTreePartial() const = 0;  // empty partial
  virtual void* CloneTreePartial(const void* p) const = 0;
  virtual void AssignTreePartial(void* dst, const void* src) const = 0;
  virtual void DeleteTreePartial(void* p) const = 0;
  virtual void MakeTreePartialInto(void* p, NodeId node,
                                   uint32_t epoch) const = 0;
  virtual void MergeTree(void* into, const void* from) const = 0;
  virtual void FinalizeTreePartial(void* p, NodeId node) const = 0;

  // Synopsis lifetime + multi-path algorithm.
  virtual void* NewSynopsis() const = 0;  // empty synopsis
  virtual void* CloneSynopsis(const void* s) const = 0;
  virtual void AssignSynopsis(void* dst, const void* src) const = 0;
  virtual void DeleteSynopsis(void* s) const = 0;
  virtual void MakeSynopsisInto(void* s, NodeId node,
                                uint32_t epoch) const = 0;
  virtual void Fuse(void* into, const void* from) const = 0;

  // Conversion (Section 5): tree partial -> synopsis.
  virtual void* ConvertTreePartial(const void* p) const = 0;
  virtual void FuseConverted(void* into, const void* partial) const = 0;

  // Evaluation and payload accounting.
  virtual double EvaluateTree(const void* p) const = 0;
  virtual double EvaluateSynopsis(const void* s) const = 0;
  virtual double EvaluateCombined(const void* p, const void* s) const = 0;
  virtual size_t TreeBytes(const void* p) const = 0;
  virtual size_t SynopsisBytes(const void* s) const = 0;

  // Numerator/denominator split for the decayed window path (see
  // agg/aggregate.h's EvaluateWindowComponents); either side may be null.
  virtual void EvaluateWindowComponents(const void* p, const void* s,
                                        double* num, double* den) const = 0;
};

/// QueryOps over any Aggregate whose Result converts to double (every
/// registry aggregate except FrequentItems). Owns its aggregate instance --
/// per-query memo state stays private to the query set, mirroring the "one
/// aggregate instance per thread" rule of the memoized fast paths.
template <Aggregate A>
  requires std::convertible_to<typename A::Result, double>
class QueryOpsImpl final : public QueryOps {
  using P = typename A::TreePartial;
  using S = typename A::Synopsis;

 public:
  explicit QueryOpsImpl(A aggregate) : agg_(std::move(aggregate)) {}

  void* NewTreePartial() const override {
    return new P(agg_.EmptyTreePartial());
  }
  void* CloneTreePartial(const void* p) const override {
    return new P(*static_cast<const P*>(p));
  }
  void AssignTreePartial(void* dst, const void* src) const override {
    *static_cast<P*>(dst) = *static_cast<const P*>(src);
  }
  void DeleteTreePartial(void* p) const override {
    delete static_cast<P*>(p);
  }
  void MakeTreePartialInto(void* p, NodeId node,
                           uint32_t epoch) const override {
    td::MakeTreePartialInto(agg_, static_cast<P*>(p), node, epoch);
  }
  void MergeTree(void* into, const void* from) const override {
    agg_.MergeTree(static_cast<P*>(into), *static_cast<const P*>(from));
  }
  void FinalizeTreePartial(void* p, NodeId node) const override {
    agg_.FinalizeTreePartial(static_cast<P*>(p), node);
  }

  void* NewSynopsis() const override { return new S(agg_.EmptySynopsis()); }
  void* CloneSynopsis(const void* s) const override {
    return new S(*static_cast<const S*>(s));
  }
  void AssignSynopsis(void* dst, const void* src) const override {
    *static_cast<S*>(dst) = *static_cast<const S*>(src);
  }
  void DeleteSynopsis(void* s) const override { delete static_cast<S*>(s); }
  void MakeSynopsisInto(void* s, NodeId node, uint32_t epoch) const override {
    td::MakeSynopsisInto(agg_, static_cast<S*>(s), node, epoch);
  }
  void Fuse(void* into, const void* from) const override {
    agg_.Fuse(static_cast<S*>(into), *static_cast<const S*>(from));
  }

  void* ConvertTreePartial(const void* p) const override {
    return new S(agg_.Convert(*static_cast<const P*>(p)));
  }
  void FuseConverted(void* into, const void* partial) const override {
    td::FuseConverted(agg_, static_cast<S*>(into),
                      *static_cast<const P*>(partial));
  }

  double EvaluateTree(const void* p) const override {
    return agg_.EvaluateTree(*static_cast<const P*>(p));
  }
  double EvaluateSynopsis(const void* s) const override {
    return agg_.EvaluateSynopsis(*static_cast<const S*>(s));
  }
  double EvaluateCombined(const void* p, const void* s) const override {
    return agg_.EvaluateCombined(*static_cast<const P*>(p),
                                 *static_cast<const S*>(s));
  }
  size_t TreeBytes(const void* p) const override {
    return agg_.TreeBytes(*static_cast<const P*>(p));
  }
  size_t SynopsisBytes(const void* s) const override {
    return agg_.SynopsisBytes(*static_cast<const S*>(s));
  }

  void EvaluateWindowComponents(const void* p, const void* s, double* num,
                                double* den) const override {
    td::EvaluateWindowComponents(agg_, static_cast<const P*>(p),
                                 static_cast<const S*>(s), num, den);
  }

  const A& aggregate() const { return agg_; }

 private:
  A agg_;
};

namespace qs_internal {

struct TreePayloadTraits {
  static void* New(const QueryOps& o) { return o.NewTreePartial(); }
  static void* Clone(const QueryOps& o, const void* p) {
    return o.CloneTreePartial(p);
  }
  static void Assign(const QueryOps& o, void* dst, const void* src) {
    o.AssignTreePartial(dst, src);
  }
  static void Delete(const QueryOps& o, void* p) { o.DeleteTreePartial(p); }
};

struct SynopsisPayloadTraits {
  static void* New(const QueryOps& o) { return o.NewSynopsis(); }
  static void* Clone(const QueryOps& o, const void* s) {
    return o.CloneSynopsis(s);
  }
  static void Assign(const QueryOps& o, void* dst, const void* src) {
    o.AssignSynopsis(dst, src);
  }
  static void Delete(const QueryOps& o, void* s) { o.DeleteSynopsis(s); }
};

/// One query's opaque payload, owned through its QueryOps. Copy-assignment
/// between boxes of the same query reuses the destination's storage
/// (QueryOps::Assign*), which is what keeps the engines' per-epoch
/// `inbox.assign(n, empty)` reset allocation-free after the first epoch.
template <typename Traits>
class PayloadBox {
 public:
  PayloadBox() = default;
  explicit PayloadBox(const QueryOps* ops)
      : ops_(ops), p_(Traits::New(*ops)) {}
  /// Adopts `payload`, already allocated against `ops`.
  PayloadBox(const QueryOps* ops, void* payload) : ops_(ops), p_(payload) {}
  PayloadBox(const PayloadBox& o)
      : ops_(o.ops_), p_(o.p_ ? Traits::Clone(*o.ops_, o.p_) : nullptr) {}
  PayloadBox(PayloadBox&& o) noexcept : ops_(o.ops_), p_(o.p_) {
    o.p_ = nullptr;
  }
  PayloadBox& operator=(const PayloadBox& o) {
    if (this == &o) return *this;
    if (p_ != nullptr && o.p_ != nullptr && ops_ == o.ops_) {
      Traits::Assign(*ops_, p_, o.p_);
    } else {
      Reset();
      ops_ = o.ops_;
      if (o.p_ != nullptr) p_ = Traits::Clone(*ops_, o.p_);
    }
    return *this;
  }
  PayloadBox& operator=(PayloadBox&& o) noexcept {
    if (this == &o) return *this;
    Reset();
    ops_ = o.ops_;
    p_ = o.p_;
    o.p_ = nullptr;
    return *this;
  }
  ~PayloadBox() { Reset(); }

  void* get() { return p_; }
  const void* get() const { return p_; }

 private:
  void Reset() {
    if (p_ != nullptr) Traits::Delete(*ops_, p_);
    p_ = nullptr;
  }

  const QueryOps* ops_ = nullptr;
  void* p_ = nullptr;
};

}  // namespace qs_internal

/// Tree partial of a query set: one payload per query, index-aligned with
/// the QuerySetAggregate's query list.
struct QuerySetTreePartial {
  std::vector<qs_internal::PayloadBox<qs_internal::TreePayloadTraits>> q;
};

/// Synopsis of a query set: one payload per query.
struct QuerySetSynopsis {
  std::vector<qs_internal::PayloadBox<qs_internal::SynopsisPayloadTraits>> q;
};

/// Type-erased view of root aggregate state: the exact tree partial and/or
/// the fused synopsis, as opaque pointers to an aggregate's TreePartial /
/// Synopsis; null for a side that did not reach the base. An engine's
/// root state (Engine::root_state) points at its aggregate's payloads --
/// QuerySetTreePartial / QuerySetSynopsis for a query-set engine -- and
/// SliceQueryRoot narrows it to one member query's payloads.
struct RootState {
  const void* tree_partial = nullptr;
  const void* synopsis = nullptr;
};

/// Query `query`'s slice of an engine's root state: that query's payload
/// of every live side for a query-set engine (`query_set`), or the state
/// itself for an engine over one lowered aggregate (query 0).
RootState SliceQueryRoot(const RootState& engine_root, size_t query,
                         bool query_set);

/// One query's owned root state at the base-station tier (windows, the
/// federation coordinator, the broker's scope merges): an optional tree
/// partial and an optional synopsis, allocated through the query's
/// QueryOps. Its live sides are exactly the sides put into it, so the
/// evaluation form follows the data: EvaluateCombined when both sides
/// are live, EvaluateTree or EvaluateSynopsis when one is. A tree
/// strategy's root carries the partial, synopsis diffusion's the
/// synopsis, Tributary-Delta's both; a merge over mixed strategies
/// carries the union.
class QueryRootState {
 public:
  explicit QueryRootState(const QueryOps* ops) : ops_(ops) {}

  /// state := root. Copies the root's live sides (reusing this state's
  /// storage) and drops the sides the root lacks.
  void Assign(const RootState& root);

  /// state := state (+) newer: MergeTree on the partial side and Fuse on
  /// the synopsis side, for each side `newer` carries. A side this state
  /// lacks starts from the empty payload and is merged into, so a merge
  /// chain runs New, then merge, merge, ... This state must be the
  /// chronologically OLDER one: MergeTree / Fuse keep `into` on
  /// conflicts (e.g. duplicate sample ids), so older-on-the-left
  /// reproduces a brute-force oldest-to-newest fold bit for bit.
  void Merge(const RootState& newer);

  /// The query's answer, in the form the live sides pick. A state with no
  /// live side answers as an empty aggregation (EvaluateTree of the empty
  /// partial).
  double Evaluate() const;

  /// The live sides, valid until this state next changes.
  RootState view() const { return RootState{tree_.get(), synopsis_.get()}; }

 private:
  using TreeBox = qs_internal::PayloadBox<qs_internal::TreePayloadTraits>;
  using SynopsisBox =
      qs_internal::PayloadBox<qs_internal::SynopsisPayloadTraits>;

  const QueryOps* ops_;
  TreeBox tree_;          // null payload: side absent
  SynopsisBox synopsis_;  // null payload: side absent
};

/// Per-query scalar answers for one epoch. `primary` designates the query
/// whose answer stands for the whole set where a single scalar is expected
/// (EpochResult.value, RunResult.rms, TD adaptation reporting).
struct QuerySetResult {
  std::vector<double> values;
  size_t primary = 0;
};

/// The adapter itself: an Aggregate over per-query payload vectors. All
/// operations apply element-wise through the per-query vtables, preserving
/// each member query's exact operation order -- which is what makes a
/// one-query set bit-identical to the wrapped aggregate and a width-N set
/// bit-identical (on estimates) to N independent runs.
class QuerySetAggregate {
 public:
  using TreePartial = QuerySetTreePartial;
  using Synopsis = QuerySetSynopsis;
  using Result = QuerySetResult;

  explicit QuerySetAggregate(std::vector<std::unique_ptr<QueryOps>> queries,
                             size_t primary = 0);

  size_t num_queries() const { return queries_.size(); }
  size_t primary() const { return primary_; }
  const QueryOps& ops(size_t i) const { return *queries_[i]; }

  TreePartial MakeTreePartial(NodeId node, uint32_t epoch) const;
  TreePartial EmptyTreePartial() const;
  void MergeTree(TreePartial* into, const TreePartial& from) const;
  void FinalizeTreePartial(TreePartial* p, NodeId node) const;

  Synopsis MakeSynopsis(NodeId node, uint32_t epoch) const;
  Synopsis EmptySynopsis() const;
  void Fuse(Synopsis* into, const Synopsis& from) const;
  Synopsis Convert(const TreePartial& p) const;

  /// Reset-in-place / memoized fast paths (see aggregate.h): forwarded
  /// per query so each member's own fast path is used when it has one.
  void MakeTreePartialInto(TreePartial* out, NodeId node,
                           uint32_t epoch) const;
  void MakeSynopsisInto(Synopsis* out, NodeId node, uint32_t epoch) const;
  void FuseConverted(Synopsis* into, const TreePartial& p) const;

  Result EvaluateTree(const TreePartial& p) const;
  Result EvaluateSynopsis(const Synopsis& s) const;
  Result EvaluateCombined(const TreePartial& p, const Synopsis& s) const;

  /// Payload bytes only: the sum over member queries. The per-message
  /// header (and multi-path piggyback) stays with the engines, charged
  /// once per physical transmission regardless of query-set width.
  size_t TreeBytes(const TreePartial& p) const;
  size_t SynopsisBytes(const Synopsis& s) const;

 private:
  std::vector<std::unique_ptr<QueryOps>> queries_;
  size_t primary_;
};

static_assert(Aggregate<QuerySetAggregate>,
              "QuerySetAggregate must satisfy the Aggregate concept so the "
              "kernel can run query sets unchanged");

}  // namespace td

#endif  // TD_AGG_QUERY_SET_H_
