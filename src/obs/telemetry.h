// Telemetry sink: one owner for the metrics registry, the epoch tracer,
// and the phase profiler, wired behind RunBuilder::Telemetry().
//
// The sink keeps no copy of the radio ledger and no topology. The network
// counts every transmission and unicast once (EnergyStats, RetryStats);
// each gateway turns that ledger into the net.* series at epoch end, and
// books contested unicasts through the network's LinkObserver hook.
//
// Overhead contract (pinned by obs_test + check_bench.py --telemetry):
//  - OFF (no sink installed): the radio carries no telemetry hook at all;
//    the layers above see one thread-local load per TD_PROFILE_SCOPE or
//    CountEvent. Results are bit-identical to a telemetry-off build, and
//    the telemetry-off StepEpoch stays within 2% of a raw engine epoch.
//  - ON: telemetry only *observes* -- it never consumes RNG draws or
//    reorders work -- so results stay bit-identical to telemetry-off.
//
// Threading: a sink is single-threaded. Parallel Monte Carlo trials each
// own a private sink (the per-thread "shard"); RunTrials merges the
// resulting TelemetrySummary shards in trial order, which keeps
// Threads(1) == Threads(N) bit-identity for every counter and event.
#ifndef TD_OBS_TELEMETRY_H_
#define TD_OBS_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace td::obs {

struct TelemetryConfig {
  bool metrics = true;   // named counter/gauge/histogram series
  bool trace = true;     // flight-recorder event ring
  bool profile = true;   // TD_PROFILE_SCOPE wall-time breakdown
  /// Flight-recorder ring size; when full the oldest events are
  /// overwritten (and counted as dropped).
  size_t trace_capacity = 4096;
  /// Also record a per-epoch x per-node radio-bytes matrix (heavier;
  /// feeds time-to-first-death style lifetime analysis).
  bool node_energy_series = false;
};

struct PhaseRow {
  std::string name;
  uint64_t ns = 0;
  uint64_t calls = 0;
};

/// The drained, trial-mergeable view of one sink, carried on
/// RunResult/SweepResult (and the federated equivalents).
struct TelemetrySummary {
  bool enabled = false;
  /// Name-sorted flattened registry snapshot.
  std::vector<MetricRow> metrics;
  /// Fixed Phase-enum order. Wall time: not part of bit-identity.
  std::vector<PhaseRow> phases;
  /// Drained flight recorder (oldest to newest). Per-run only: trial
  /// merges keep the recorded/dropped totals but not the event bodies.
  std::vector<TraceEvent> events;
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  /// node_energy_series[epoch][node] = radio bytes charged that epoch
  /// (empty unless TelemetryConfig::node_energy_series).
  std::vector<std::vector<uint64_t>> node_energy_series;

  /// Value of a metric row by exact name; 0 when absent.
  double metric(std::string_view name) const;

  /// Trial-order shard merge: counters/histogram rows add by name, phases
  /// add slot-wise, trace totals add, node-energy matrices add
  /// element-wise. Events are not concatenated (epoch numbering restarts
  /// per trial); read per-trial events from SweepResult::trials.
  void Merge(const TelemetrySummary& o);
};

class TelemetrySink {
 public:
  explicit TelemetrySink(const TelemetryConfig& config);

  const TelemetryConfig& config() const { return config_; }
  MetricRegistry& metrics() { return metrics_; }
  EpochTracer& tracer() { return tracer_; }
  Profiler& profiler() { return profiler_; }
  bool profile_enabled() const { return config_.profile; }

  /// Starts epoch `epoch`: stamps it on the events that follow and, with
  /// node_energy_series on, opens the epoch's per-node radio-bytes row.
  void BeginEpoch(uint32_t epoch) {
    epoch_ = epoch;
    if (config_.node_energy_series) node_energy_series_.emplace_back();
  }

  /// Low-frequency counter bump by name (registry lookup per call; do not
  /// use on per-message paths).
  void Count(std::string_view name, uint64_t n = 1) {
    if (config_.metrics) metrics_.GetCounter(name)->Add(n);
  }

  /// Records a structured event stamped with the current epoch. The sink
  /// keeps no topology, so the event's ring is -1; a caller that knows a
  /// node's ring records the whole event with Record.
  void Event(EventKind kind, int32_t node = -1, int64_t a = 0, int64_t b = 0) {
    Record({epoch_, kind, node, -1, a, b});
  }
  void Record(const TraceEvent& e) {
    if (config_.trace) tracer_.Record(e);
  }

  /// The open epoch's per-node radio-bytes row (node_energy_series), or
  /// null when the series is off or no epoch has begun. Every gateway of a
  /// facade adds its radio's bytes into the same row.
  std::vector<uint64_t>* node_energy_row() {
    return node_energy_series_.empty() ? nullptr : &node_energy_series_.back();
  }

  /// Zeroes every series and phase (warmup boundary: keeps measured
  /// totals bitwise comparable to the post-ResetEnergy legacy counters).
  void Reset();

  /// Snapshot + drain into a result-carried summary.
  TelemetrySummary Summarize();

 private:
  TelemetryConfig config_;
  MetricRegistry metrics_;
  EpochTracer tracer_;
  Profiler profiler_;
  uint32_t epoch_ = 0;
  std::vector<std::vector<uint64_t>> node_energy_series_;
};

namespace internal {
/// The sink observing the current thread's epoch loop; set by
/// Experiment/FederatedExperiment around StepEpoch via ScopedSink.
inline thread_local TelemetrySink* current_sink = nullptr;
}  // namespace internal

inline TelemetrySink* Current() { return internal::current_sink; }

/// RAII installer for the thread-local current sink (nestable; restores
/// the previous sink on destruction). A null sink is a no-op install.
class ScopedSink {
 public:
  explicit ScopedSink(TelemetrySink* sink) : prev_(internal::current_sink) {
    internal::current_sink = sink;
  }
  ~ScopedSink() { internal::current_sink = prev_; }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  TelemetrySink* prev_;
};

/// Counter bump against the current sink; a single TLS load + null check
/// when telemetry is off. For low-frequency paths (per-epoch, per-churn).
inline void CountEvent(std::string_view name, uint64_t n = 1) {
  if (TelemetrySink* s = Current()) s->Count(name, n);
}

/// Structured event against the current sink (epoch stamped by the sink).
inline void Emit(EventKind kind, int32_t node = -1, int64_t a = 0,
                 int64_t b = 0) {
  if (TelemetrySink* s = Current()) s->Event(kind, node, a, b);
}

/// Times a lexical scope into the current sink's phase profiler. When no
/// sink is installed (or profiling is off) the cost is one thread-local
/// load and a branch; the clock is only read with profiling on.
class ProfileScope {
 public:
  explicit ProfileScope(Phase phase) : phase_(phase), sink_(Current()) {
    if (sink_ != nullptr && sink_->profile_enabled()) {
      start_ = std::chrono::steady_clock::now();
    } else {
      sink_ = nullptr;
    }
  }
  ~ProfileScope() {
    if (sink_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    sink_->profiler().Add(phase_, static_cast<uint64_t>(ns));
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Phase phase_;
  TelemetrySink* sink_;
  std::chrono::steady_clock::time_point start_;
};

#define TD_PROFILE_CONCAT_INNER(a, b) a##b
#define TD_PROFILE_CONCAT(a, b) TD_PROFILE_CONCAT_INNER(a, b)
#define TD_PROFILE_SCOPE(phase) \
  ::td::obs::ProfileScope TD_PROFILE_CONCAT(td_profile_scope_, __LINE__)(phase)

}  // namespace td::obs

#endif  // TD_OBS_TELEMETRY_H_
