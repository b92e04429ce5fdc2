// The per-query window the Experiment facade and the federation broker
// drive: one QueryWindow per windowed query, fed the query's slice of the
// per-epoch root state (tree partial and/or synopsis as opaque payloads
// behind the query's QueryOps vtable), producing the windowed scalar
// series. Sliding, tumbling and hopping windows run the combiners of
// window/sliding_window.h. The decayed (EWMA) path needs no state
// re-merging at all: it folds the per-epoch numerator/denominator
// components (QueryOps::EvaluateWindowComponents) into two scalars.
#ifndef TD_WINDOW_QUERY_WINDOW_H_
#define TD_WINDOW_QUERY_WINDOW_H_

#include <memory>
#include <optional>

#include "agg/query_set.h"
#include "window/sliding_window.h"
#include "window/window.h"

namespace td {

/// One standing query's window at the base station. Observe once per
/// epoch, in epoch order, with the query's root state; its live sides pick
/// the evaluation form.
class QueryWindow {
 public:
  /// `ops` are the query's type-erased operations (the window takes
  /// ownership; a fresh MakeQueryOps instance is fine -- every operation a
  /// window uses is a pure function of the query's parameters).
  QueryWindow(std::unique_ptr<QueryOps> ops, WindowSpec spec);

  /// Feeds one epoch's root state and returns the current windowed value.
  double Observe(const RootState& root);

  /// State-maintenance merges so far (see SlidingWindow::merges; 0 for
  /// the decayed path, which folds scalars).
  size_t merges() const;

  const WindowSpec& spec() const { return spec_; }

 private:
  std::unique_ptr<QueryOps> ops_;
  WindowSpec spec_;
  std::optional<SlidingWindow> sliding_;
  std::optional<HoppingWindow> hopping_;
  // Decayed path: EWMAs of the per-epoch numerator/denominator components.
  bool decay_seeded_ = false;
  double num_ewma_ = 0.0;
  double den_ewma_ = 0.0;
};

}  // namespace td

#endif  // TD_WINDOW_QUERY_WINDOW_H_
