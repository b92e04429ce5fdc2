// Window specifications for streaming aggregation: what "the last W epochs"
// means for a standing query (api/query.h's Query::window).
//
// The paper answers one epoch at a time, but a real base station runs
// standing queries over the stream of epochs: "max temperature in the last
// 24 epochs", "distinct readings over the last hour", "decayed average".
// A WindowSpec names the window shape; the combiners that realize it over
// per-epoch root aggregate state live in window/sliding_window.h (generic
// two-stacks / hopping templates) and window/query_window.h (the type-erased
// per-query driver the Experiment facade uses).
//
// All windowing is pure base-station code: it re-merges the root partial /
// synopsis the base station already received, so a windowed query adds ZERO
// radio bytes and leaves every engine hot loop (and its bit-identity
// guarantees) untouched.
#ifndef TD_WINDOW_WINDOW_H_
#define TD_WINDOW_WINDOW_H_

#include <cstdint>

#include "api/strategy.h"

namespace td {

/// Window shape of a standing query.
enum class WindowKind {
  /// No window: the query reports instantaneous per-epoch answers only.
  kNone,
  /// Aggregate over the last `width` epochs, refreshed every epoch.
  kSliding,
  /// Non-overlapping blocks of `width` epochs; reports the most recently
  /// completed block (sugar for kHopping with hop == width).
  kTumbling,
  /// Windows of `width` epochs starting every `hop` epochs; reports the
  /// most recently completed window (the standard emit-on-close semantics).
  kHopping,
  /// Exponentially decayed (EWMA) aggregate over the whole stream; only
  /// invertible aggregates (Count / Sum / Avg / Ewma) support decay.
  kDecayed,
};

/// EWMA smoothing used when kEwma is run without an explicit Decayed
/// window: new = alpha * epoch + (1 - alpha) * old.
inline constexpr double kDefaultEwmaAlpha = 0.25;

/// One query's window. Default-constructed (kNone) means "no window"; use
/// the factories to build valid specs:
///
///   .AddQuery(Query{.kind = AggregateKind::kMax,
///                   .window = WindowSpec::Sliding(24)})
struct WindowSpec {
  WindowKind kind = WindowKind::kNone;

  /// Window width in epochs (sliding / tumbling / hopping).
  uint32_t width = 0;

  /// Hop between window starts in epochs (hopping; 0 < hop <= width).
  uint32_t hop = 0;

  /// EWMA smoothing factor in (0, 1] (decayed; 1 means no smoothing).
  double alpha = 0.0;

  static WindowSpec Sliding(uint32_t width) {
    return WindowSpec{WindowKind::kSliding, width, 0, 0.0};
  }
  static WindowSpec Tumbling(uint32_t width) {
    return WindowSpec{WindowKind::kTumbling, width, width, 0.0};
  }
  static WindowSpec Hopping(uint32_t width, uint32_t hop) {
    return WindowSpec{WindowKind::kHopping, width, hop, 0.0};
  }
  static WindowSpec Decayed(double alpha) {
    return WindowSpec{WindowKind::kDecayed, 0, 0, alpha};
  }

  bool windowed() const { return kind != WindowKind::kNone; }
};

/// True for the aggregate kinds whose windowed value can be exponentially
/// decayed: decay needs scalar numerator/denominator state that forms a
/// group under addition (the invertible Sum / Count path). Max-like
/// aggregates have no inverse and cannot "forget" smoothly.
inline bool KindSupportsDecay(AggregateKind kind) {
  return kind == AggregateKind::kCount || kind == AggregateKind::kSum ||
         kind == AggregateKind::kAvg || kind == AggregateKind::kEwma;
}

/// Fails fast (TD_CHECK_MSG) on a malformed window spec: zero widths, bad
/// hops, EWMA alpha outside (0, 1], decay on a non-invertible aggregate.
/// Called by the Experiment builder for every windowed query.
void ValidateWindowSpec(const WindowSpec& spec, AggregateKind kind);

}  // namespace td

#endif  // TD_WINDOW_WINDOW_H_
