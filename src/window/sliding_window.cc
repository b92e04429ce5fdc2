#include "window/sliding_window.h"

#include <utility>

#include "util/check.h"

namespace td {

SlidingWindow::SlidingWindow(const QueryOps* ops, uint32_t width)
    : ops_(ops), width_(width), back_agg_(ops) {
  TD_CHECK(ops != nullptr);
  TD_CHECK_GT(width, 0u);
}

void SlidingWindow::Push(const RootState& root) {
  if (size() == width_) {
    if (front_.empty()) Flip();
    front_.pop_back();
  }
  back_.emplace_back(ops_).Assign(root);
  if (back_.size() == 1) {
    back_agg_ = back_.back();  // first element: assignment, not a merge
  } else {
    back_agg_.Merge(root);
    ++merges_;
  }
}

double SlidingWindow::Evaluate() const {
  TD_CHECK_GT(size(), 0u);
  if (front_.empty()) return back_agg_.Evaluate();
  if (back_.empty()) return front_.back().Evaluate();
  QueryRootState scratch = front_.back();
  scratch.Merge(back_agg_.view());
  return scratch.Evaluate();
}

void SlidingWindow::Flip() {
  TD_CHECK(front_.empty());
  TD_CHECK(!back_.empty());
  front_.reserve(back_.size());
  for (size_t i = back_.size(); i-- > 0;) {
    if (front_.empty()) {
      front_.push_back(std::move(back_[i]));
    } else {
      QueryRootState suffix = back_[i];
      suffix.Merge(front_.back().view());
      ++merges_;
      front_.push_back(std::move(suffix));
    }
  }
  back_.clear();
  back_agg_ = QueryRootState(ops_);
}

HoppingWindow::HoppingWindow(const QueryOps* ops, uint32_t width,
                             uint32_t hop)
    : ops_(ops), width_(width), hop_(hop) {
  TD_CHECK(ops != nullptr);
  TD_CHECK_GT(width, 0u);
  TD_CHECK_GT(hop, 0u);
  TD_CHECK_LE(hop, width);
}

void HoppingWindow::Push(const RootState& root) {
  if (ticks_ % hop_ == 0) {
    open_.push_back(Accumulator{QueryRootState(ops_), 0});
  }
  for (Accumulator& acc : open_) {
    if (acc.count == 0) {
      acc.state.Assign(root);  // first element: assignment, not a merge
    } else {
      acc.state.Merge(root);
      ++merges_;
    }
    ++acc.count;
  }
  ++ticks_;
  // Windows close oldest-first: only the front can be complete.
  if (!open_.empty() && open_.front().count == width_) {
    closed_ = std::move(open_.front().state);
    open_.pop_front();
  }
}

double HoppingWindow::Evaluate() const {
  if (closed_) return closed_->Evaluate();
  TD_CHECK(!open_.empty());
  return open_.front().state.Evaluate();
}

}  // namespace td
