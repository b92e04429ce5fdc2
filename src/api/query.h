// The first-class query descriptor of the multi-query facade: what one
// standing aggregate query over the sensor field looks like to the
// Experiment builder. A query set is just a vector of these; the builder
// turns each into type-erased QueryOps (agg/query_set.h) and runs the whole
// set through one engine, sharing message headers and radio energy.
//
//   RunResult r = Experiment::Builder()
//                     .Synthetic(42)
//                     .AddQuery({.kind = AggregateKind::kAvg})
//                     .AddQuery({.kind = AggregateKind::kMax})
//                     .AddQuery({.kind = AggregateKind::kQuantile,
//                                .quantile_p = 0.9})
//                     .Reading(light)
//                     .Strategy(Strategy::kTributaryDelta)
//                     .Epochs(60)
//                     .Run();
//   // r.queries[i].{name, estimates, truths, rms} per query.
#ifndef TD_API_QUERY_H_
#define TD_API_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "agg/query_set.h"
#include "api/strategy.h"
#include "quant/group_by.h"
#include "quant/qdigest_aggregate.h"
#include "quant/region_grid.h"
#include "util/check.h"
#include "window/window.h"
#include "window/window_truth.h"

namespace td {

/// One standing query. Fields left at their zero values inherit the
/// builder-level defaults (Reading / RealReading / SketchBitmaps) or the
/// aggregate kind's own defaults; see Experiment::Builder::AddQuery.
struct Query {
  /// Which aggregate to compute. Every registry kind except
  /// kFrequentItems (whose result is not a scalar) can join a query set.
  AggregateKind kind = AggregateKind::kCount;

  /// Display name used in RunResult.queries[]; empty picks
  /// AggregateKindName(kind).
  std::string name;

  /// Per-query readings; unset falls back to the builder-level functions
  /// (a per-query integer Reading also serves as the real reading for
  /// Min/Max/Quantile, as at the builder level).
  UintReadingFn reading;
  RealReadingFn real_reading;

  /// FM sketch bitmaps (Count/Sum/Avg/UniqueCount); 0 inherits
  /// SketchBitmaps() or the sketch default.
  int sketch_bitmaps = 0;

  /// Synopsis seed; 0 picks the kind's default. Two same-kind queries with
  /// default seeds build identical synopses -- give them distinct seeds to
  /// decorrelate their sketch error.
  uint64_t sketch_seed = 0;

  /// kQuantile / kQuantileQd: which quantile (median by default); the
  /// uniform sample capacity applies to kQuantile only
  /// (0 -> kDefaultQuantileSampleSize). kQuantileQd requires a strict
  /// p in (0, 1).
  double quantile_p = 0.5;
  size_t sample_size = 0;

  /// q-digest kinds (kQuantileQd / kHistogramQd / kRangeCountQd) only:
  /// value domain [0, 2^digest_bits) (0 -> 16 bits) and compression
  /// parameter k (0 -> 32; rank error <= digest_bits / digest_k).
  int digest_bits = 0;
  int digest_k = 0;

  /// kRangeCountQd only: inclusive value range; both 0 means the full
  /// domain [0, 2^digest_bits).
  uint64_t range_lo = 0;
  uint64_t range_hi = 0;

  /// kHistogramQd only: equal-width buckets over the domain; must be a
  /// power of two (0 -> 8).
  int histogram_buckets = 0;

  /// Spatial group-by (src/quant/): partitions the sensors into regions
  /// and carries one payload per region, so the run reports per-group
  /// estimates/truths/rms in QuerySeries alongside the global scalar.
  /// Inactive by default. Resolved against the scenario by the Experiment
  /// builder into `resolved_groups`.
  RegionSpec group_by;
  std::shared_ptr<const RegionGrid> resolved_groups;

  /// Per-epoch ground truth override; unset derives the exact truth from
  /// the kind and reading function.
  std::function<double(uint32_t)> truth;

  /// Streaming window over the query's per-epoch answers (window/): the
  /// base station re-merges each epoch's root partial/synopsis, so a
  /// windowed query reports BOTH the instantaneous series and a windowed
  /// series (QuerySeries.windowed_estimates) at zero extra radio bytes.
  /// Default kNone = instantaneous only; kEwma queries default to
  /// WindowSpec::Decayed(kDefaultEwmaAlpha).
  WindowSpec window;

  /// Fluent form for call sites that prefer chaining over designated
  /// initializers: Query{.kind = kMax}.Window(WindowSpec::Sliding(24)).
  Query&& Window(WindowSpec spec) && {
    window = spec;
    return std::move(*this);
  }
  Query& Window(WindowSpec spec) & {
    window = spec;
    return *this;
  }

  /// Fluent form of the spatial group-by:
  /// Query{.kind = kSum}.GroupBy(RegionSpec::Grid(2, 2)).
  Query&& GroupBy(RegionSpec spec) && {
    group_by = std::move(spec);
    return std::move(*this);
  }
  Query& GroupBy(RegionSpec spec) & {
    group_by = std::move(spec);
    return *this;
  }
};

namespace api_internal {

/// Hands out the list of sensors that are up (alive and awake) at an
/// epoch; static experiments return one fixed list (see experiment.cc).
using SensorListFn =
    std::function<std::shared_ptr<const std::vector<NodeId>>(uint32_t)>;

/// Fills a query's unset fields from the builder-level defaults and fails
/// fast (TD_CHECK_MSG) on missing requirements, e.g. a Sum query with no
/// integer reading anywhere.
Query ResolveQuery(Query q, const UintReadingFn& builder_reading,
                   const RealReadingFn& builder_real_reading,
                   int builder_sketch_bitmaps);

/// The q-digest parameters a resolved query describes.
inline QDigestParams QueryDigestParams(const Query& q) {
  QDigestParams params;
  params.bits = q.digest_bits;
  params.k = q.digest_k;
  params.quantile_p = q.quantile_p;
  params.range_lo = q.range_lo;
  params.range_hi = q.range_hi;
  params.histogram_buckets = q.histogram_buckets;
  return params;
}

/// Constructs the concrete aggregate a RESOLVED query describes and
/// invokes `f` with it by value. The one kind-to-constructor dispatch in
/// the codebase: both the builder's lowered single-aggregate path and
/// MakeQueryOps go through it, so the two can never drift apart and break
/// the "Aggregate(kind) is bit-identical to a one-query set" contract.
/// kFrequentItems (rejected by ResolveQuery) aborts.
template <typename F>
auto VisitQueryAggregate(const Query& q, F&& f) {
  // Grouped queries (resolved_groups set by Experiment::Builder::Build)
  // wrap the kind's aggregate in a GroupByAggregate carrying one payload
  // per region; ungrouped queries pass the aggregate through untouched.
  auto g = [&](auto agg) {
    if (q.resolved_groups != nullptr) {
      return f(GroupByAggregate<decltype(agg)>(q.resolved_groups,
                                               std::move(agg)));
    }
    return f(std::move(agg));
  };
  switch (q.kind) {
    case AggregateKind::kCount:
      return g(CountAggregate(q.sketch_bitmaps, q.sketch_seed));
    case AggregateKind::kSum:
      return g(SumAggregate(q.reading, q.sketch_bitmaps, q.sketch_seed));
    case AggregateKind::kAvg:
      return g(AverageAggregate(q.reading, q.sketch_bitmaps, q.sketch_seed));
    case AggregateKind::kEwma:
      // Radio-side an EWMA query IS an average (invertible Sum/Count
      // pair); the decay happens in the window layer at the base station.
      return g(AverageAggregate(q.reading, q.sketch_bitmaps, q.sketch_seed));
    case AggregateKind::kMin:
      return g(ExtremumAggregate(ExtremumAggregate::Kind::kMin,
                                 q.real_reading));
    case AggregateKind::kMax:
      return g(ExtremumAggregate(ExtremumAggregate::Kind::kMax,
                                 q.real_reading));
    case AggregateKind::kUniqueCount:
      return g(UniqueCountAggregate(q.reading, q.sketch_bitmaps,
                                    q.sketch_seed));
    case AggregateKind::kQuantile:
      return g(QuantileAggregate(q.real_reading, q.quantile_p,
                                 q.sample_size, q.sketch_seed));
    case AggregateKind::kQuantileQd:
      return g(QDigestAggregate(q.reading, QDigestAggregate::Answer::kQuantile,
                                QueryDigestParams(q)));
    case AggregateKind::kHistogramQd:
      return g(QDigestAggregate(q.reading,
                                QDigestAggregate::Answer::kHistogramMode,
                                QueryDigestParams(q)));
    case AggregateKind::kRangeCountQd:
      return g(QDigestAggregate(q.reading,
                                QDigestAggregate::Answer::kRangeCount,
                                QueryDigestParams(q)));
    case AggregateKind::kFrequentItems:
      break;
  }
  internal::CheckFailedMsg(__FILE__, __LINE__, "VisitQueryAggregate",
                           "aggregate kind has no query-set aggregate");
}

/// Builds the type-erased ops for one resolved query. The wrapped
/// aggregate uses the same constructor defaults (seeds, bitmaps) as the
/// single-aggregate path, so a one-query set is bit-identical to it.
std::unique_ptr<QueryOps> MakeQueryOps(const Query& q);
/// The ops of every query of a set, in order.
std::vector<std::unique_ptr<QueryOps>> MakeQueryOps(
    const std::vector<Query>& queries);

/// The exact ground truth a resolved query defaults to, recomputed over
/// the sensors up at each epoch; null only for callers that override.
std::function<double(uint32_t)> MakeDefaultQueryTruth(const Query& q,
                                                      SensorListFn sensors_at);

/// Per-epoch exact truth INPUTS of a resolved query, for re-aggregation
/// into windowed ground truth (window/window_truth.h). Null when the
/// query's truth was overridden by the caller: the default inputs could
/// contradict the override, so the windowed truth series stays empty.
WindowTruthInputFn MakeWindowTruthInputs(const Query& q,
                                         SensorListFn sensors_at);

/// Type-erased per-group evaluation of a grouped query's root
/// state (the opaque GroupByAggregate payloads): the Experiment facade
/// slices per-group estimates out of each epoch without knowing the
/// wrapped aggregate's type.
class GroupEval {
 public:
  virtual ~GroupEval() = default;
  virtual size_t num_groups() const = 0;
  /// `root` is the query's slice of the engine's root state; either side
  /// may be null (only the sides that reached the base are set).
  virtual void Evaluate(const RootState& root,
                        std::vector<double>* out) const = 0;
};

/// Builds the per-group evaluator for a RESOLVED query, or null for an
/// ungrouped one. The evaluator is a fresh aggregate built by the same
/// VisitQueryAggregate dispatch as the engine's own, so the payload types
/// (and every evaluation) match bit-for-bit.
std::unique_ptr<GroupEval> MakeGroupEval(const Query& q);

/// Restricts a sensor list to one group of the query's resolved partition
/// (`group` >= 0), or to all covered sensors (`group` == -1) -- the basis
/// of per-group and partition-wide default ground truths.
SensorListFn FilterSensorsByGroup(SensorListFn sensors_at,
                                  std::shared_ptr<const RegionGrid> grid,
                                  int group);

}  // namespace api_internal
}  // namespace td

#endif  // TD_API_QUERY_H_
