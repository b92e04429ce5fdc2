// Runtime-selectable names for the framework's aggregation strategies and
// built-in aggregates: the vocabulary of the td::Engine / td::Experiment
// facade. The paper's central claim is that one framework subsumes tree
// aggregation (TAG), synopsis diffusion, and the adaptive Tributary-Delta
// hybrid; this header makes that a value, not a template parameter.
#ifndef TD_API_STRATEGY_H_
#define TD_API_STRATEGY_H_

namespace td {

/// Which aggregation scheme an Engine runs.
enum class Strategy {
  /// TAG tree aggregation, one attempt per message (Section 2).
  kTag,
  /// TAG with two extra per-message retransmissions (Figure 9(b)).
  kTagRetx,
  /// Synopsis diffusion over the rings topology (Section 2, "SD").
  kSynopsisDiffusion,
  /// Tributary-Delta with the fine-grained TD adaptation policy.
  kTributaryDelta,
  /// Tributary-Delta with the coarse (whole-level) adaptation policy.
  kTdCoarse,
};

inline constexpr Strategy kAllStrategies[] = {
    Strategy::kTag, Strategy::kTagRetx, Strategy::kSynopsisDiffusion,
    Strategy::kTributaryDelta, Strategy::kTdCoarse};

/// Display name matching the paper's figures ("TAG", "SD", "TD", ...).
inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kTag:
      return "TAG";
    case Strategy::kTagRetx:
      return "TAG+retx";
    case Strategy::kSynopsisDiffusion:
      return "SD";
    case Strategy::kTributaryDelta:
      return "TD";
    case Strategy::kTdCoarse:
      return "TD-Coarse";
  }
  return "?";
}

/// True for the strategies that maintain a tributary/delta region and run
/// an adaptation policy.
inline bool IsAdaptive(Strategy s) {
  return s == Strategy::kTributaryDelta || s == Strategy::kTdCoarse;
}

/// The engine core. One value is left: every strategy runs on the
/// structure-of-arrays core (src/core/). Kept only because
/// bench/suite/workloads.cc names it; goes with the next change to the
/// benchmark suite.
enum class EngineCore { kSoa };

/// Which aggregate an Experiment computes (the Section 5 registry).
enum class AggregateKind {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kUniqueCount,
  kQuantile,
  /// Exponentially decayed average. Radio-side it is exactly kAvg (one
  /// duplicate-insensitive Sum + Count pair per epoch); the decay happens
  /// at the base station over the per-epoch sum/count components, so the
  /// instantaneous series reports the plain average while the windowed
  /// series reports the EWMA. Without an explicit Query::window it
  /// defaults to WindowSpec::Decayed(kDefaultEwmaAlpha).
  kEwma,
  /// Error-bounded quantile over an integer value domain via the q-digest
  /// summary (src/quant/): rank error <= digest_bits / digest_k,
  /// deterministic. Parameterized by Query::quantile_p (strict (0, 1)),
  /// Query::digest_bits and Query::digest_k.
  kQuantileQd,
  /// Modal-bucket midpoint of a power-of-two histogram derived from the
  /// same q-digest (Query::histogram_buckets).
  kHistogramQd,
  /// Estimated number of readings inside [Query::range_lo,
  /// Query::range_hi], derived from the same q-digest.
  kRangeCountQd,
  kFrequentItems,
};

inline const char* AggregateKindName(AggregateKind k) {
  switch (k) {
    case AggregateKind::kCount:
      return "Count";
    case AggregateKind::kSum:
      return "Sum";
    case AggregateKind::kAvg:
      return "Avg";
    case AggregateKind::kMin:
      return "Min";
    case AggregateKind::kMax:
      return "Max";
    case AggregateKind::kUniqueCount:
      return "UniqueCount";
    case AggregateKind::kQuantile:
      return "Quantile";
    case AggregateKind::kEwma:
      return "Ewma";
    case AggregateKind::kQuantileQd:
      return "QuantileQd";
    case AggregateKind::kHistogramQd:
      return "HistogramQd";
    case AggregateKind::kRangeCountQd:
      return "RangeCountQd";
    case AggregateKind::kFrequentItems:
      return "FrequentItems";
  }
  return "?";
}

}  // namespace td

#endif  // TD_API_STRATEGY_H_
