// Epoch tracer: a bounded ring-buffer flight recorder of structured
// events. Recording overwrites the oldest event when full (flight-recorder
// semantics: the tail of the timeline survives, a `dropped` counter says
// how much head was lost). Drained events serialize to JSONL for
// tools/td_trace.py timeline rendering.
#ifndef TD_OBS_TRACE_H_
#define TD_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace td::obs {

enum class EventKind : uint8_t {
  /// Retry outcome of one logical unicast: node = sender, a = physical
  /// attempts, b = 1 if the data reached the receiver. Only contested
  /// unicasts (a > 1 or b == 0) are recorded, so clean traffic does not
  /// flush repairs and mode switches out of the bounded ring.
  kRetry = 0,
  /// Dynamics rebuilt/repaired the topology this epoch; a = cumulative
  /// repair count, b = gateway index (0 for a single engine).
  kTreeRepair,
  /// TD adaptation resized the multipath region; a = +levels expanded or
  /// -levels shrunk this epoch, b = gateway index.
  kModeSwitch,
  /// Route aging re-parented persistently failing tree links; a = nodes
  /// rerouted this epoch.
  kReroute,
  /// Federation coordinator folded gateway roots; a = merges this epoch,
  /// b = merged bytes this epoch.
  kCoordinatorMerge,
  /// Broker computation-group churn; a = group id.
  kGroupCreated,
  kGroupRetired,
};

const char* EventKindName(EventKind kind);

struct TraceEvent {
  uint32_t epoch = 0;
  EventKind kind = EventKind::kRetry;
  int32_t node = -1;  // -1: not node-scoped (base-station / run-level event)
  int32_t ring = -1;  // node's ring level at record time; -1 if none
  int64_t a = 0;
  int64_t b = 0;

  bool operator==(const TraceEvent&) const = default;
};

class EpochTracer {
 public:
  explicit EpochTracer(size_t capacity);

  /// Appends, overwriting the oldest event when the ring is full.
  void Record(const TraceEvent& e);

  /// Oldest-to-newest copy of the surviving events; clears the ring (but
  /// not the recorded/dropped totals).
  std::vector<TraceEvent> Drain();

  /// Oldest-to-newest copy without clearing.
  std::vector<TraceEvent> Snapshot() const;

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return size_; }
  /// Total Record() calls since construction/Reset.
  uint64_t recorded() const { return recorded_; }
  /// Events overwritten before being drained.
  uint64_t dropped() const { return dropped_; }

  void Reset();

 private:
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  // write cursor
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

/// One event per line: {"epoch":..,"kind":"retry","node":..,"ring":..,
/// "a":..,"b":..}. The td_trace.py timeline tool consumes this.
std::string ToJsonl(const std::vector<TraceEvent>& events);

}  // namespace td::obs

#endif  // TD_OBS_TRACE_H_
