// Metrics registry: named Counter / Gauge / Histogram series backing the
// telemetry sink. One registry instance is single-threaded by construction
// -- parallel Monte Carlo trials each own a private registry ("shard") and
// the shards are merged in trial order, so Threads(1) == Threads(N)
// produces bit-identical merged series (the same guarantee RunTrials pins
// for results).
//
// Series are registered lazily by name; registration returns a stable
// pointer (node-based map), so hot paths resolve a series once and bump it
// through the pointer with no per-event string lookup.
#ifndef TD_OBS_METRICS_H_
#define TD_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace td::obs {

/// Monotonic event count. Merge across shards is addition.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }
  void Merge(const Counter& o) { value_ += o.value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-written sample (e.g. a per-run derived ratio). Merge across shards
/// is addition too -- a deterministic, order-independent rule; callers that
/// want a mean divide by the trial count on read.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }
  void Merge(const Gauge& o) { value_ += o.value_; }

 private:
  double value_ = 0.0;
};

/// Fixed log2-bucket histogram: Observe(x) lands in bucket bit_width(x),
/// i.e. bucket b holds x in [2^(b-1), 2^b). Bucket 0 holds x == 0. The
/// bucket layout is fixed at compile time so shard merges are plain
/// element-wise sums with no rebinning.
class Histogram {
 public:
  /// bit_width(uint64_t) ranges 0..64, so 65 buckets cover every value.
  static constexpr int kBuckets = 65;

  static int BucketOf(uint64_t x);

  /// Observes `x` `n` times.
  void Observe(uint64_t x, uint64_t n = 1) {
    counts_[BucketOf(x)] += n;
    total_ += n;
    sum_ += x * n;
  }

  uint64_t total() const { return total_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket(int b) const { return counts_[b]; }

  void Reset();
  void Merge(const Histogram& o);

 private:
  uint64_t counts_[kBuckets] = {};
  uint64_t total_ = 0;
  uint64_t sum_ = 0;
};

/// One flattened series sample: histograms expand into `.count`, `.sum`,
/// and one `.bucketN` row per non-empty bucket.
struct MetricRow {
  std::string name;
  double value = 0.0;

  bool operator==(const MetricRow&) const = default;
};

/// Name -> series map with stable pointers and deterministic (sorted)
/// iteration for snapshots and shard merges.
class MetricRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Adds every series of `o` into this registry (registering missing
  /// names). Deterministic: map iteration is name-sorted.
  void Merge(const MetricRegistry& o);

  /// Zeroes every registered series; registrations (and the pointers
  /// handed out) stay valid. Used at the warmup boundary so measured
  /// totals line up bitwise with the post-ResetEnergy legacy counters.
  void Reset();

  /// Flattened, name-sorted snapshot of every series.
  std::vector<MetricRow> Rows() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace td::obs

#endif  // TD_OBS_METRICS_H_
