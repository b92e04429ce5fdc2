#include "window/query_window.h"

#include <utility>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

QueryWindow::QueryWindow(std::unique_ptr<QueryOps> ops, WindowSpec spec)
    : ops_(std::move(ops)), spec_(spec) {
  TD_CHECK(ops_ != nullptr);
  switch (spec_.kind) {
    case WindowKind::kSliding:
      sliding_.emplace(ops_.get(), spec_.width);
      break;
    case WindowKind::kTumbling:
    case WindowKind::kHopping:
      hopping_.emplace(ops_.get(), spec_.width, spec_.hop);
      break;
    case WindowKind::kDecayed:
      break;
    case WindowKind::kNone:
      TD_CHECK(false);  // windowless queries never build a QueryWindow
      break;
  }
}

double QueryWindow::Observe(const RootState& root) {
  if (spec_.kind == WindowKind::kDecayed) {
    double num = 0.0;
    double den = 0.0;
    ops_->EvaluateWindowComponents(root.tree_partial, root.synopsis, &num,
                                   &den);
    if (!decay_seeded_) {
      num_ewma_ = num;
      den_ewma_ = den;
      decay_seeded_ = true;
    } else {
      num_ewma_ = spec_.alpha * num + (1.0 - spec_.alpha) * num_ewma_;
      den_ewma_ = spec_.alpha * den + (1.0 - spec_.alpha) * den_ewma_;
    }
    return den_ewma_ <= 0.0 ? 0.0 : num_ewma_ / den_ewma_;
  }

  TD_PROFILE_SCOPE(obs::Phase::kWindowCombine);
  const size_t merges_before = merges();
  double value;
  if (sliding_) {
    sliding_->Push(root);
    value = sliding_->Evaluate();
  } else {
    TD_CHECK(hopping_.has_value());
    hopping_->Push(root);
    value = hopping_->Evaluate();
  }
  // State-maintenance merges this push performed (two-stacks flips show up
  // as bursts; the amortized bound stays <= 2 per push).
  if (const size_t d = merges() - merges_before; d > 0) {
    obs::CountEvent("window.state_merges", d);
  }
  return value;
}

size_t QueryWindow::merges() const {
  if (sliding_) return sliding_->merges();
  if (hopping_) return hopping_->merges();
  return 0;
}

}  // namespace td
