// Multi-path frequent items (Section 6.2, Algorithm 2).
//
// The tree algorithm's Step 3 subtracts error mass from every estimate --
// but no duplicate-insensitive *subtraction* with small synopses exists.
// This algorithm avoids subtraction entirely:
//
//  * per-item counts are kept in duplicate-insensitive sum sketches (FM by
//    default, matching the paper's experiments; Theorem 1's accuracy-
//    preserving operator corresponds to the KMV sketch, see kmv_sketch.h);
//  * instead of subtract-and-drop, an item is dropped when its estimate
//    falls below a *rising threshold* eps * n~ / log N (with slack eta > 1
//    to absorb the sketch's relative error);
//  * synopses carry a *class* i ~= log2(items represented); only same-class
//    synopses combine (Algorithm 2), so after every combine the threshold
//    has risen enough that pruning can fire again and no synopsis grows
//    beyond O(log N / eps * eta) items.
//
// Duplicate insensitivity end-to-end: all sketch insertions are keyed by
// (item, source node), so the same logical contribution arriving along two
// ring paths -- even after being fused into synopses of *different*
// classes -- ORs back into place when the base station's SE function adds
// estimates across classes with the duplicate-insensitive operator.
#ifndef TD_FREQ_MULTIPATH_FREQ_H_
#define TD_FREQ_MULTIPATH_FREQ_H_

#include <cstdint>
#include <map>
#include <vector>

#include "freq/item_source.h"
#include "freq/summary.h"

namespace td {

struct MultipathFreqParams {
  /// Error tolerance eps_b of the multi-path part.
  double eps = 0.01;

  /// Thresholding slack (Algorithm 2 restricts eta > 1).
  double eta = 2.0;

  /// A-priori upper bound on N (total occurrences network-wide); only its
  /// logarithm enters the threshold.
  uint64_t n_upper = 1ull << 20;

  /// Bitmaps of the per-class n~ sketch.
  int count_bitmaps = 40;

  /// Bitmaps of each per-item counter (small: the experiments use the
  /// low-overhead best-effort operator of [7], as Section 7.4.3 does).
  int item_bitmaps = 8;

  uint64_t seed = 0xf00d;

  int LogN() const;
};

/// A synopsis of one class: i ~ log2 of the number of occurrences
/// represented. Flat block store: `items` is sorted ascending and the
/// duplicate-insensitive counter of items[k] is the FM bank at words
/// [k*W, (k+1)*W) of `counters`, W = MultipathFreqParams::item_bitmaps. A
/// fuse is a sorted merge that ORs the banks of shared items.
///
/// Carried sizes: `counter_bytes[k]` and `n_sketch_bytes` hold the
/// BankRleBytes of items[k]'s counter and of `n_sketch`, or 0 where the bank
/// is not sized yet. A non-zero size always equals BankRleBytes of the bank
/// as it stands: a bank is sized when it is created, a fuse keeps the size
/// of a bank the OR left unchanged (or that became a copy of the other
/// side's) and zeroes the rest, and MultipathFreq::EncodedBytes sizes only
/// the zeros. The sizes are a memo of the encoding, not part of the value,
/// so sizing a const synopsis fills them in; one synopsis must not be sized
/// from two threads at once.
struct FreqClassSynopsis {
  int cls = 0;
  std::vector<uint32_t> n_sketch;  // FM bank: duplicate-insensitive count
  std::vector<Item> items;         // ascending
  std::vector<uint32_t> counters;  // item_bitmaps words per item
  mutable std::vector<uint16_t> counter_bytes;  // one per item; 0 = unsized
  mutable uint16_t n_sketch_bytes = 0;          // 0 = unsized
};

/// A node's full partial result: at most one synopsis per class, in
/// ascending class order.
struct FreqSynopsisBank {
  std::vector<FreqClassSynopsis> classes;

  bool Empty() const { return classes.empty(); }
};

class MultipathFreq {
 public:
  explicit MultipathFreq(MultipathFreqParams params);

  const MultipathFreqParams& params() const { return params_; }

  /// SG: count local frequencies, prune items with frequency at most
  /// i*n'*eps/logN (i = floor(log2 n')), emit a class-i synopsis.
  FreqSynopsisBank Generate(NodeId node, const ItemCounts& local) const;

  /// SF: fold every class synopsis of `from` into `into`, combining
  /// same-class synopses with Algorithm 2 (with carry: a combine that
  /// promotes its class re-combines upward).
  void Fuse(FreqSynopsisBank* into, const FreqSynopsisBank& from) const;

  /// Section 6.3 conversion: treat the tree summary's estimates as actual
  /// frequencies, apply the SG thresholding with n' = summary.n, key all
  /// insertions by the (unique) subtree root `origin`.
  FreqSynopsisBank ConvertSummary(NodeId origin, const Summary& summary) const;

  struct Evaluation {
    std::map<Item, double> counts;  // estimated frequency per item
    double total = 0.0;             // estimated N
  };

  /// SE: add per-item estimates across classes with the duplicate-
  /// insensitive operator (sketch union), then estimate.
  Evaluation Evaluate(const FreqSynopsisBank& bank) const;

  /// Serialized size of a bank for message accounting: per class a class
  /// id byte and the n~ bank's BankRleBytes, per item a 4-byte id and its
  /// counter's BankRleBytes. Sizes only the banks that carry no size, and
  /// stores what it sized in the bank.
  size_t EncodedBytes(const FreqSynopsisBank& bank) const;

  /// An empty bank (the fusion identity).
  FreqSynopsisBank EmptyBank() const { return FreqSynopsisBank{}; }

 private:
  size_t ItemWords() const {
    return static_cast<size_t>(params_.item_bitmaps);
  }
  size_t CountWords() const {
    return static_cast<size_t>(params_.count_bitmaps);
  }

  /// The counter bank of `s.items[k]` (item_bitmaps words).
  const uint32_t* Counter(const FreqClassSynopsis& s, size_t k) const {
    return s.counters.data() + k * ItemWords();
  }

  /// The SG/conversion core: a one-class bank over `counts` (n' = n,
  /// threshold i*n'*eps/logN), every insertion keyed by `key_node`.
  template <typename Counts>
  FreqSynopsisBank SingleClassBank(NodeId key_node, uint64_t n,
                                   const Counts& counts) const;

  /// Algorithm 2 proper: combine the same-class synopsis `b` into `a`;
  /// may promote `a`.
  void Combine(FreqClassSynopsis* a, const FreqClassSynopsis& b) const;

  /// Applies the rising-threshold drop rule for a synopsis that reached
  /// estimated size n_est, compacting the kept items in place.
  void ApplyThreshold(FreqClassSynopsis* s, double n_est) const;

  void InsertWithCarry(FreqSynopsisBank* bank,
                       const FreqClassSynopsis& s) const;

  MultipathFreqParams params_;
};

/// Report rule (Section 6): all items whose estimated counts exceed
/// (support - eps) * total are frequent; no false negatives under the
/// deficiency guarantee, false positives have frequency >= (s - eps) * N.
std::vector<Item> ReportFrequent(const std::map<Item, double>& counts,
                                 double total, double support, double eps);

}  // namespace td

#endif  // TD_FREQ_MULTIPATH_FREQ_H_
