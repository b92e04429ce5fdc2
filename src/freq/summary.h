// The summary data structure and Algorithm 1 (Section 6.1.1).
//
// A summary S = <n, eps, {(u, c~(u))}> holds eps-deficient estimates over
// the n item occurrences in a subtree:
//     max{0, c(u) - eps * n}  <=  c~(u)  <=  c(u).
// Items whose true frequency is at most eps*n may be absent entirely; that
// is exactly what keeps summaries (and hence communication) small.
//
// Algorithm 1, run by a node of height k:
//   1. n := sum of child n_j plus local n_0;
//   2. pointwise-sum the estimates;
//   3. subtract eps(k)*n - sum_j eps_j*n_j from every estimate and drop
//      non-positive ones.
// The subtracted "error mass" is tracked explicitly (`error_mass` = the
// current sum of eps_j*n_j absorbed into the estimates) so merging
// summaries with heterogeneous deficiencies stays correct.
#ifndef TD_FREQ_SUMMARY_H_
#define TD_FREQ_SUMMARY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "freq/item_source.h"
#include "freq/precision_gradient.h"

namespace td {

struct Summary {
  /// Total item occurrences represented (exact: summed up the tree).
  uint64_t n = 0;

  /// Deficiency bound: estimates are eps-deficient with respect to n.
  double eps = 0.0;

  /// Sum of eps_j * n_j over all merged inputs: the error mass already
  /// subtracted from the estimates. For a finalized eps(k)-summary this is
  /// eps(k) * n.
  double error_mass = 0.0;

  /// Estimated counts in ascending item order, one entry per item;
  /// strictly positive (non-positive estimates are dropped by Algorithm 1).
  /// A flat sorted vector: merging is a sorted merge, pruning compacts in
  /// place, and a cached copy costs 16 bytes per item.
  std::vector<std::pair<Item, double>> items;

  /// The estimate of `u`, or nullptr when `u` is absent.
  const double* Find(Item u) const;

  /// Number of 32-bit words a transmission of this summary costs:
  /// 2 per (item, estimate) pair + 2 for (n, error-mass/height metadata).
  size_t Words() const { return 2 * items.size() + 2; }
};

/// S_0: a node's exact local summary (eps = 0).
Summary LocalSummary(const ItemCounts& counts);

/// Steps 1-2 of Algorithm 1: pointwise merge without pruning. Inputs may
/// have different deficiencies; `into` accumulates n, error_mass and
/// estimates.
void MergeSummaries(Summary* into, const Summary& from);

/// Step 3 of Algorithm 1 for a node of height `height`: subtract
/// eps(height)*n - error_mass from every estimate, drop non-positive
/// entries, and stamp the summary as eps(height)-deficient.
void PruneSummary(Summary* s, const PrecisionGradient& gradient, int height);

/// Convenience: full Algorithm 1 over in-memory child summaries.
Summary GenerateSummary(const ItemCounts& local,
                        const std::vector<Summary>& children,
                        const PrecisionGradient& gradient, int height);

}  // namespace td

#endif  // TD_FREQ_SUMMARY_H_
