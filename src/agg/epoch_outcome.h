// Result of running one aggregation epoch, shared by all engines.
#ifndef TD_AGG_EPOCH_OUTCOME_H_
#define TD_AGG_EPOCH_OUTCOME_H_

#include <cstddef>

namespace td {

/// Bookkeeping for the engines' reusable per-epoch inbox scratch: `builds`
/// counts full (re)allocations of the size-n inbox arrays, `reuses` counts
/// epochs served from the existing buffers. A batch run over one engine
/// must show builds == 1 regardless of epoch count.
struct ScratchStats {
  size_t builds = 0;
  size_t reuses = 0;
};

template <typename Result>
struct EpochOutcome {
  Result result{};

  /// Ground truth: how many sensors' readings are accounted for in
  /// `result` (simulator metadata; the base station cannot observe this).
  size_t true_contributing = 0;

  /// What the base station *believes* contributed, from the piggybacked
  /// counts: exact for tree regions, an FM estimate for delta regions. This
  /// is the signal that drives Tributary-Delta adaptation (Section 4.2).
  double reported_contributing = 0.0;
};

}  // namespace td

#endif  // TD_AGG_EPOCH_OUTCOME_H_
