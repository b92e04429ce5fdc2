// Adaptation strategies (Section 4.2) and oscillation damping.
//
// Users give a threshold on the minimum % of nodes that should contribute
// to an answer. The base station compares the (approximate) piggybacked
// contributing count against it and either expands the delta (more
// robustness) or shrinks it (less approximation error):
//
//  * TD-Coarse -- expand/shrink by a whole "level": switch every switchable
//    node at once. Fast convergence, no spatial selectivity.
//  * TD        -- fine-grained: each frontier M node reports how many nodes
//    in its subtree did not contribute; the delta expands only under the
//    frontier node(s) with the *maximum* missing count (the subtrees with
//    the greatest robustness problems) and shrinks only at frontier node(s)
//    with the *minimum* missing count.
//
// A repeated expand/shrink alternation makes the damper stretch the
// adaptation period geometrically (Section 4.2's "gradually reduces the
// frequency of adjustments").
#ifndef TD_TD_ADAPTATION_H_
#define TD_TD_ADAPTATION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "td/region_state.h"

namespace td {

/// Base-station-side knobs.
struct AdaptationConfig {
  /// Minimum fraction of sensors that should contribute (paper uses 0.9).
  double threshold = 0.9;

  /// Shrink only when the contributing fraction exceeds threshold + margin
  /// ("well above the threshold"). The margin also absorbs the FM noise of
  /// the piggybacked count so the delta settles at the top of the band.
  double shrink_margin = 0.08;

  /// Epochs between adaptation decisions (paper adapts every 10 epochs).
  uint32_t period = 10;

  /// TD (fine) expansion heuristic: expand under every frontier node whose
  /// missing count is at least this fraction of the aggregated max.
  /// Section 4.2 names "using max/2 instead of max" as a heuristic to
  /// improve adaptivity; smaller fractions converge faster under
  /// network-wide failures while 1.0 is the strict max-only rule.
  double fine_expand_fraction = 0.34;

  /// TD (fine) panic heuristic: when the contributing estimate falls this
  /// far below the threshold, the failure is network-wide, not local --
  /// expand every switchable node at once like TD-Coarse does (Section 7.2
  /// observes both strategies "respond similarly" to Global failures).
  double panic_gap = 0.25;

  /// Enable oscillation damping.
  bool damping = true;

  /// Damping never stretches the period beyond period * max_period_scale.
  uint32_t max_period_scale = 8;
};

/// What the base station learned from the last aggregation epoch.
struct AdaptationFeedback {
  /// Conservative (lower-confidence-bound) estimate of the fraction of
  /// sensors contributing: exact tree counts plus a one-sigma-discounted FM
  /// estimate for the delta region. Drives *expansion* decisions -- the
  /// user asked for AT LEAST threshold coverage, so uncertainty counts
  /// against the current region.
  double pct_contributing = 0.0;

  /// Undiscounted (point) estimate; drives *shrink* decisions, which
  /// should fire only when the region is comfortably over-provisioned.
  double pct_contributing_raw = 0.0;

  /// Per-frontier-node "nodes in my subtree that did not contribute":
  /// each frontier node's own count, node-local knowledge, not a report
  /// that reached the base station. The engine fills it for every frontier
  /// node of the epoch whenever any max/min report arrived (missing_valid).
  /// This is how the paper's max/2 rule uses it: the base station
  /// broadcasts the aggregated max (min), and each frontier node compares
  /// its own count against it.
  std::map<NodeId, uint64_t> frontier_missing;

  /// Max/min over frontier_missing as aggregated in-network (the max/min
  /// fields of Section 4.2). Valid only if missing_valid.
  uint64_t max_missing = 0;
  uint64_t min_missing = 0;
  bool missing_valid = false;
};

enum class AdaptAction { kNone, kExpand, kShrink };

/// Adaptation counters of one engine; all zeros for a pinned labelling.
struct EngineStats {
  size_t expansions = 0;
  size_t shrinks = 0;
  size_t decisions = 0;  // includes rounds that changed nothing
};

class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  /// Applies one adaptation decision to `region`.
  virtual AdaptAction Adapt(const AdaptationFeedback& feedback,
                            const AdaptationConfig& config,
                            RegionState* region) = 0;

  virtual const char* name() const = 0;
};

/// Strategy TD-Coarse.
class TdCoarsePolicy : public AdaptationPolicy {
 public:
  AdaptAction Adapt(const AdaptationFeedback& feedback,
                    const AdaptationConfig& config,
                    RegionState* region) override;
  const char* name() const override { return "TD-Coarse"; }
};

/// Strategy TD (fine-grained).
class TdFinePolicy : public AdaptationPolicy {
 public:
  AdaptAction Adapt(const AdaptationFeedback& feedback,
                    const AdaptationConfig& config,
                    RegionState* region) override;
  const char* name() const override { return "TD"; }
};

/// Static policy: never adapts. With an all-T initial region this gives the
/// pure TAG baseline over the TD engine; after RegionState::ExpandAll to
/// saturation it gives pure synopsis diffusion.
class StaticPolicy : public AdaptationPolicy {
 public:
  AdaptAction Adapt(const AdaptationFeedback&, const AdaptationConfig&,
                    RegionState*) override {
    return AdaptAction::kNone;
  }
  const char* name() const override { return "Static"; }
};

/// Oscillation damper (Section 4.2's last paragraph, plus the "simple
/// heuristics to stop the oscillation" Section 7.3 alludes to): repeated
/// expand/shrink alternation stretches the adaptation period geometrically
/// AND suppresses the risky direction -- shrinking -- for a window, so the
/// delta settles at the robust end of the band instead of thrashing.
class OscillationDamper {
 public:
  explicit OscillationDamper(const AdaptationConfig& config);

  /// True when enough epochs have elapsed since the last decision.
  bool ShouldAdapt(uint32_t epoch) const;

  /// True while shrinking is suppressed after a detected oscillation.
  bool ShrinkSuppressed(uint32_t epoch) const;

  /// Records a decision made at `epoch` and updates the period: an
  /// expand/shrink alternation doubles it (capped) and opens a shrink-
  /// suppression window; a repeated action or a no-op resets the period.
  void Record(uint32_t epoch, AdaptAction action);

  /// Back to the configured period with no oscillation memory. Called when
  /// the network is repaired after churn: the topology the oscillation was
  /// observed on no longer exists, and the base station should be free to
  /// re-adapt immediately rather than sit out a stretched period.
  void Reset();

  uint32_t current_period() const { return current_period_; }

 private:
  AdaptationConfig config_;
  uint32_t current_period_;
  uint32_t last_epoch_ = 0;
  bool has_last_epoch_ = false;
  AdaptAction last_action_ = AdaptAction::kNone;
  uint32_t shrink_suppressed_until_ = 0;
};

}  // namespace td

#endif  // TD_TD_ADAPTATION_H_
