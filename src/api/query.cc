#include "api/query.h"

#include <algorithm>
#include <set>
#include <type_traits>
#include <utility>

#include "sketch/fm_sketch.h"
#include "util/check.h"
#include "util/stats.h"

namespace td {
namespace api_internal {
namespace {

bool IsQDigestKind(AggregateKind kind) {
  return kind == AggregateKind::kQuantileQd ||
         kind == AggregateKind::kHistogramQd ||
         kind == AggregateKind::kRangeCountQd;
}

/// Default synopsis seeds per kind, matching the aggregate constructors'
/// defaults so query sets and directly constructed aggregates agree
/// bit-for-bit.
uint64_t DefaultSeed(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return 1;
    case AggregateKind::kSum:
      return 2;
    case AggregateKind::kAvg:
      return 3;
    case AggregateKind::kQuantile:
      return 4;
    case AggregateKind::kUniqueCount:
      return 5;
    case AggregateKind::kEwma:
      return 6;  // decorrelates from a kAvg query sharing the set
    default:
      return 0;  // Min/Max and FrequentItems take no synopsis seed here
  }
}

bool NeedsUintReading(AggregateKind kind) {
  return kind == AggregateKind::kSum || kind == AggregateKind::kAvg ||
         kind == AggregateKind::kUniqueCount ||
         kind == AggregateKind::kEwma || IsQDigestKind(kind);
}

bool NeedsRealReading(AggregateKind kind) {
  return kind == AggregateKind::kMin || kind == AggregateKind::kMax ||
         kind == AggregateKind::kQuantile;
}

}  // namespace

Query ResolveQuery(Query q, const UintReadingFn& builder_reading,
                   const RealReadingFn& builder_real_reading,
                   int builder_sketch_bitmaps) {
  TD_CHECK_MSG(q.kind != AggregateKind::kFrequentItems,
               "kFrequentItems cannot join a query set: its result is not a "
               "scalar; run it via Aggregate(kFrequentItems)");
  if (q.name.empty()) q.name = AggregateKindName(q.kind);
  // A per-query integer reading outranks the builder-level real reading
  // (it is the more specific choice), mirroring how the builder-level
  // integer reading backfills the real reading for Min/Max.
  if (!q.real_reading) {
    if (q.reading) {
      UintReadingFn r = q.reading;
      q.real_reading = [r](NodeId v, uint32_t e) {
        return static_cast<double>(r(v, e));
      };
    } else if (builder_real_reading) {
      q.real_reading = builder_real_reading;
    } else if (builder_reading) {
      UintReadingFn r = builder_reading;
      q.real_reading = [r](NodeId v, uint32_t e) {
        return static_cast<double>(r(v, e));
      };
    }
  }
  if (!q.reading) q.reading = builder_reading;
  if (q.sketch_bitmaps <= 0) q.sketch_bitmaps = builder_sketch_bitmaps;
  if (q.sketch_bitmaps <= 0) q.sketch_bitmaps = FmSketch::kDefaultBitmaps;
  if (q.sketch_seed == 0) q.sketch_seed = DefaultSeed(q.kind);
  if (q.sample_size == 0) q.sample_size = kDefaultQuantileSampleSize;
  TD_CHECK_MSG(!(NeedsUintReading(q.kind) && q.reading == nullptr),
               "Sum/Avg/UniqueCount queries need an integer Reading(), on "
               "the query or on the builder");
  TD_CHECK_MSG(!(NeedsRealReading(q.kind) && q.real_reading == nullptr),
               "Min/Max/Quantile queries need a RealReading() or Reading(), "
               "on the query or on the builder");
  TD_CHECK_MSG(q.quantile_p >= 0.0 && q.quantile_p <= 1.0,
               "Query::quantile_p must lie in [0, 1]");
  if (IsQDigestKind(q.kind)) {
    if (q.digest_bits == 0) q.digest_bits = 16;
    if (q.digest_k == 0) q.digest_k = 32;
    TD_CHECK_MSG(q.digest_bits >= 1 && q.digest_bits <= 32,
                 "Query::digest_bits must lie in [1, 32]: the q-digest "
                 "domain is [0, 2^bits) over integer readings");
    TD_CHECK_MSG(q.digest_k >= 1,
                 "Query::digest_k must be >= 1: the q-digest rank error "
                 "bound is digest_bits / digest_k");
    if (q.kind == AggregateKind::kQuantileQd) {
      TD_CHECK_MSG(q.quantile_p > 0.0 && q.quantile_p < 1.0,
                   "Query::quantile_p must lie strictly in (0, 1) for "
                   "kQuantileQd: the q-digest rank bound is vacuous at "
                   "the endpoints");
    }
    if (q.kind == AggregateKind::kRangeCountQd) {
      if (q.range_lo == 0 && q.range_hi == 0) {
        q.range_hi = (1ull << q.digest_bits) - 1;  // full domain
      }
      TD_CHECK_MSG(
          q.range_lo <= q.range_hi && q.range_hi < (1ull << q.digest_bits),
          "kRangeCountQd needs range_lo <= range_hi < 2^digest_bits");
    }
    if (q.kind == AggregateKind::kHistogramQd) {
      if (q.histogram_buckets == 0) q.histogram_buckets = 8;
      TD_CHECK_MSG(q.histogram_buckets >= 1 &&
                       (q.histogram_buckets & (q.histogram_buckets - 1)) ==
                           0 &&
                       static_cast<uint64_t>(q.histogram_buckets) <=
                           (1ull << q.digest_bits),
                   "Query::histogram_buckets must be a power of two within "
                   "the value domain");
    }
  }
  // An EWMA query IS its decayed window; default one in when the caller
  // didn't pick an explicit shape.
  if (q.kind == AggregateKind::kEwma && !q.window.windowed()) {
    q.window = WindowSpec::Decayed(kDefaultEwmaAlpha);
  }
  TD_CHECK_MSG(!(q.group_by.active() &&
                 q.window.kind == WindowKind::kDecayed),
               "GroupBy is incompatible with a decayed window: the EWMA "
               "num/den split runs over the global scalar and would smear "
               "the grouped ratio; use a sliding window instead");
  ValidateWindowSpec(q.window, q.kind);
  return q;
}

std::unique_ptr<QueryOps> MakeQueryOps(const Query& q) {
  return VisitQueryAggregate(q, [](auto agg) -> std::unique_ptr<QueryOps> {
    return std::make_unique<QueryOpsImpl<decltype(agg)>>(std::move(agg));
  });
}

std::vector<std::unique_ptr<QueryOps>> MakeQueryOps(
    const std::vector<Query>& queries) {
  std::vector<std::unique_ptr<QueryOps>> ops;
  ops.reserve(queries.size());
  for (const Query& q : queries) ops.push_back(MakeQueryOps(q));
  return ops;
}

std::function<double(uint32_t)> MakeDefaultQueryTruth(
    const Query& q, SensorListFn sensors_at) {
  if (q.truth) return q.truth;
  switch (q.kind) {
    case AggregateKind::kCount:
      return [sensors_at](uint32_t e) {
        return static_cast<double>(sensors_at(e)->size());
      };
    case AggregateKind::kSum: {
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        // Bind the list before iterating: range-for over *sensors_at(e)
        // would destroy the temporary shared_ptr (and under dynamics the
        // freshly built list it owns) before the loop body runs.
        auto up = sensors_at(e);
        double t = 0;
        for (NodeId v : *up) {
          t += static_cast<double>(reading(v, e));
        }
        return t;
      };
    }
    case AggregateKind::kAvg:
    case AggregateKind::kEwma: {
      // kEwma's instantaneous series is the plain average; the decayed
      // comparison lives in the windowed series (windowed_truths).
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        auto up = sensors_at(e);
        if (up->empty()) return 0.0;
        double t = 0;
        for (NodeId v : *up) t += static_cast<double>(reading(v, e));
        return t / static_cast<double>(up->size());
      };
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      RealReadingFn real_reading = q.real_reading;
      const bool is_min = q.kind == AggregateKind::kMin;
      return [sensors_at, real_reading, is_min](uint32_t e) {
        auto up = sensors_at(e);
        if (up->empty()) return 0.0;
        double t = real_reading(up->front(), e);
        for (NodeId v : *up) {
          double r = real_reading(v, e);
          t = is_min ? std::min(t, r) : std::max(t, r);
        }
        return t;
      };
    }
    case AggregateKind::kUniqueCount: {
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        auto up = sensors_at(e);  // keep the list alive across the loop
        std::set<uint64_t> distinct;
        for (NodeId v : *up) distinct.insert(reading(v, e));
        return static_cast<double>(distinct.size());
      };
    }
    case AggregateKind::kQuantile: {
      RealReadingFn real_reading = q.real_reading;
      const double p = q.quantile_p;
      return [sensors_at, real_reading, p](uint32_t e) {
        auto up = sensors_at(e);
        if (up->empty()) return 0.0;
        std::vector<double> values;
        values.reserve(up->size());
        for (NodeId v : *up) values.push_back(real_reading(v, e));
        return Quantile(std::move(values), p);
      };
    }
    case AggregateKind::kQuantileQd: {
      // Exact nearest-rank quantile over the integer readings -- the
      // value the digest approximates within digest_bits / digest_k.
      UintReadingFn reading = q.reading;
      const double p = q.quantile_p;
      return [sensors_at, reading, p](uint32_t e) {
        auto up = sensors_at(e);  // keep the list alive across the loop
        if (up->empty()) return 0.0;
        std::vector<double> values;
        values.reserve(up->size());
        for (NodeId v : *up) {
          values.push_back(static_cast<double>(reading(v, e)));
        }
        return Quantile(std::move(values), p);
      };
    }
    case AggregateKind::kRangeCountQd: {
      UintReadingFn reading = q.reading;
      const uint64_t lo = q.range_lo;
      const uint64_t hi = q.range_hi;
      return [sensors_at, reading, lo, hi](uint32_t e) {
        auto up = sensors_at(e);
        double count = 0.0;
        for (NodeId v : *up) {
          const uint64_t r = reading(v, e);
          if (r >= lo && r <= hi) count += 1.0;
        }
        return count;
      };
    }
    case AggregateKind::kHistogramQd: {
      // Exact modal-bucket midpoint, computed with the same bucket edges
      // and tie-break (lowest bucket) as QDigest::HistogramMode.
      UintReadingFn reading = q.reading;
      const int buckets = q.histogram_buckets;
      const uint64_t width =
          (1ull << q.digest_bits) / static_cast<uint64_t>(buckets);
      return [sensors_at, reading, buckets, width](uint32_t e) {
        auto up = sensors_at(e);
        std::vector<uint64_t> counts(static_cast<size_t>(buckets), 0);
        for (NodeId v : *up) {
          size_t b = static_cast<size_t>(reading(v, e) / width);
          if (b >= counts.size()) b = counts.size() - 1;
          ++counts[b];
        }
        size_t best = 0;
        for (size_t b = 1; b < counts.size(); ++b) {
          if (counts[b] > counts[best]) best = b;
        }
        return static_cast<double>(best) * static_cast<double>(width) +
               static_cast<double>(width) * 0.5;
      };
    }
    case AggregateKind::kFrequentItems:
      break;
  }
  return nullptr;
}

WindowTruthInputFn MakeWindowTruthInputs(const Query& q,
                                         SensorListFn sensors_at) {
  if (q.truth) return nullptr;  // override: default inputs could contradict
  switch (q.kind) {
    case AggregateKind::kCount:
      return [sensors_at](uint32_t e) {
        WindowTruthInputs in;
        in.num = static_cast<double>(sensors_at(e)->size());
        return in;
      };
    case AggregateKind::kSum: {
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);  // keep the list alive across the loop
        for (NodeId v : *up) {
          in.num += static_cast<double>(reading(v, e));
        }
        return in;
      };
    }
    case AggregateKind::kAvg:
    case AggregateKind::kEwma: {
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);
        for (NodeId v : *up) in.num += static_cast<double>(reading(v, e));
        in.den = static_cast<double>(up->size());
        return in;
      };
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      RealReadingFn real_reading = q.real_reading;
      const bool is_min = q.kind == AggregateKind::kMin;
      return [sensors_at, real_reading, is_min](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);
        if (up->empty()) return in;  // has_extremum stays false
        in.num = real_reading(up->front(), e);
        in.has_extremum = true;
        for (NodeId v : *up) {
          double r = real_reading(v, e);
          in.num = is_min ? std::min(in.num, r) : std::max(in.num, r);
        }
        return in;
      };
    }
    case AggregateKind::kUniqueCount: {
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);  // keep the list alive across the loop
        std::set<uint64_t> distinct;
        for (NodeId v : *up) distinct.insert(reading(v, e));
        in.distinct.assign(distinct.begin(), distinct.end());
        return in;
      };
    }
    case AggregateKind::kQuantile: {
      RealReadingFn real_reading = q.real_reading;
      return [sensors_at, real_reading](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);
        in.values.reserve(up->size());
        for (NodeId v : *up) in.values.push_back(real_reading(v, e));
        return in;
      };
    }
    case AggregateKind::kQuantileQd: {
      // Pooled-multiset semantics, like kQuantile, but over the integer
      // reading the digest summarizes.
      UintReadingFn reading = q.reading;
      return [sensors_at, reading](uint32_t e) {
        WindowTruthInputs in;
        auto up = sensors_at(e);
        in.values.reserve(up->size());
        for (NodeId v : *up) {
          in.values.push_back(static_cast<double>(reading(v, e)));
        }
        return in;
      };
    }
    case AggregateKind::kRangeCountQd:
    case AggregateKind::kHistogramQd:
      // No windowed ground truth: WindowTruth's Combine would need the
      // query's range / bucket parameters, which it does not carry. The
      // windowed estimate series still runs; its truth series stays
      // empty (same contract as a caller-overridden truth).
      return nullptr;
    case AggregateKind::kFrequentItems:
      break;
  }
  return nullptr;
}

SensorListFn FilterSensorsByGroup(SensorListFn sensors_at,
                                  std::shared_ptr<const RegionGrid> grid,
                                  int group) {
  TD_CHECK(grid != nullptr);
  return [sensors_at, grid, group](uint32_t e) {
    auto up = sensors_at(e);  // keep the source list alive while filtering
    auto filtered = std::make_shared<std::vector<NodeId>>();
    filtered->reserve(up->size());
    for (NodeId v : *up) {
      const int g = grid->GroupOf(v);
      if (group < 0 ? g >= 0 : g == group) filtered->push_back(v);
    }
    return std::shared_ptr<const std::vector<NodeId>>(std::move(filtered));
  };
}

namespace {

/// GroupEval over the concrete GroupByAggregate type VisitQueryAggregate
/// builds for the query -- the casts below are the exact inverse of the
/// engine's own root-state type erasure.
template <typename A>
class GroupEvalImpl final : public GroupEval {
 public:
  explicit GroupEvalImpl(A aggregate) : agg_(std::move(aggregate)) {}

  size_t num_groups() const override { return agg_.num_groups(); }

  void Evaluate(const RootState& root,
                std::vector<double>* out) const override {
    agg_.EvaluateGroups(
        static_cast<const typename A::TreePartial*>(root.tree_partial),
        static_cast<const typename A::Synopsis*>(root.synopsis), out);
  }

 private:
  A agg_;
};

}  // namespace

std::unique_ptr<GroupEval> MakeGroupEval(const Query& q) {
  if (q.resolved_groups == nullptr) return nullptr;
  return VisitQueryAggregate(
      q, [](auto agg) -> std::unique_ptr<GroupEval> {
        using A = std::decay_t<decltype(agg)>;
        if constexpr (quant_internal::IsGroupBy<A>::value) {
          return std::make_unique<GroupEvalImpl<A>>(std::move(agg));
        } else {
          return nullptr;  // unreachable: resolved_groups forces the wrap
        }
      });
}

}  // namespace api_internal
}  // namespace td
