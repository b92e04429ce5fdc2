// Window combiners over per-epoch root aggregate state.
//
// The base station ends every epoch holding the root of the aggregation: an
// exact tree partial (tree strategies), a fused synopsis (multi-path), or
// both (Tributary-Delta, combined with EvaluateCombined). Windowed
// aggregation re-merges those per-epoch root states, held as one query's
// QueryRootState (agg/query_set.h), with the aggregate's OWN merge
// operations -- MergeTree on the partial side, Fuse on the synopsis side --
// so every aggregate that can ride the engines can ride a window, with no
// inverse ("subtract the expired epoch") required. The evaluation form
// follows the sides the root states carry.
//
//   * SlidingWindow: the last W epochs via the two-stacks technique.
//     A FIFO aggregate without inverses keeps two stacks: `back` holds the
//     newest elements with a running prefix merge, `front` holds suffix
//     merges of the older elements. Pushing merges once into the back
//     aggregate; when the front runs dry the back is flipped into suffix
//     merges (one merge per element, amortized one per push). Invariant:
//     front.back() always equals the merge of every element older than the
//     back stack, in arrival order -- so front.top merged with back.agg is
//     exactly the merge of the last W states, bit-identical to brute-force
//     re-merging because every merge keeps older state on the left.
//     Amortized state-maintenance merges per push <= 2 (each element is
//     merged at most once entering the back aggregate and once in a flip);
//     evaluation does one extra scratch combine, never counted as state
//     maintenance.
//
//   * HoppingWindow: windows of W epochs starting every `hop` epochs,
//     reporting the most recently COMPLETED window (emit-on-close, the
//     streaming-standard semantics; tumbling == hop = W). Keeps one running
//     accumulator per open window (<= ceil(W/hop) of them). Before the
//     first window completes it reports the running merge of the first
//     window, so a width-1 window still equals the instantaneous series.
//
// Both are pure base-station code: they never touch the network and never
// alter radio payloads.
#ifndef TD_WINDOW_SLIDING_WINDOW_H_
#define TD_WINDOW_SLIDING_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "agg/query_set.h"

namespace td {

/// Sliding window over the last `width` epochs (two-stacks; see the file
/// comment). Push one root state per epoch, then Evaluate.
class SlidingWindow {
 public:
  /// `ops` are the query's operations; they must outlive the window.
  SlidingWindow(const QueryOps* ops, uint32_t width);

  /// Appends one epoch's root state (copied; evicting the oldest once
  /// full).
  void Push(const RootState& root);

  /// The query's answer over the (up to) last `width` pushed states. One
  /// scratch combine when both stacks are live; not a state-maintenance
  /// merge (see merges()).
  double Evaluate() const;

  size_t size() const { return front_.size() + back_.size(); }
  uint32_t width() const { return width_; }

  /// State-maintenance merges so far (push merges + flip merges); the
  /// bench gate asserts this stays <= 2 per pushed epoch, the two-stacks
  /// bound.
  size_t merges() const { return merges_; }

 private:
  /// Turns the back stack into suffix merges on the front stack:
  /// front.back() aggregates ALL flipped elements, and each pop_back
  /// (evicting the oldest) exposes the merge of the remainder. Built
  /// newest-to-oldest with the older element always on the left.
  void Flip();

  const QueryOps* ops_;
  uint32_t width_;
  // front_.back() = oldest element's suffix merge; back_ = raw newest
  // elements in arrival order; back_agg_ = their running merge.
  std::vector<QueryRootState> front_;
  std::vector<QueryRootState> back_;
  QueryRootState back_agg_;
  size_t merges_ = 0;
};

/// Hopping window (tumbling when hop == width): reports the most recently
/// completed window [k*hop, k*hop + width), emit-on-close; before any
/// window completes, the running merge of the first window.
class HoppingWindow {
 public:
  /// `ops` are the query's operations; they must outlive the window.
  HoppingWindow(const QueryOps* ops, uint32_t width, uint32_t hop);

  void Push(const RootState& root);
  double Evaluate() const;
  size_t merges() const { return merges_; }

 private:
  struct Accumulator {
    QueryRootState state;
    uint32_t count;
  };

  const QueryOps* ops_;
  uint32_t width_;
  uint32_t hop_;
  uint64_t ticks_ = 0;
  std::deque<Accumulator> open_;
  std::optional<QueryRootState> closed_;
  size_t merges_ = 0;
};

}  // namespace td

#endif  // TD_WINDOW_SLIDING_WINDOW_H_
