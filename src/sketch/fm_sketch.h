// Flajolet-Martin (PCSA) duplicate-insensitive counting sketch.
//
// This is the "low overhead, best-effort algorithm in [7]" that the paper's
// experiments use for duplicate-insensitive Count and Sum (Section 7.1):
// a bank of 32-bit FM bitmaps whose union (bitwise OR) is insensitive to
// duplicate insertions, with the stochastic-averaging estimator of
// Flajolet & Martin (1985). Sum insertion follows Considine et al. [5]:
// a value v at key x is treated as v distinct sub-items (x,1)..(x,v), and
// the resulting bitmap distribution is simulated exactly in O(bits) time
// from a hash-seeded generator so that replays of the same (key, value)
// produce the identical bitmaps (the property duplicate-insensitivity
// rests on).
#ifndef TD_SKETCH_FM_SKETCH_H_
#define TD_SKETCH_FM_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace td {

class FmSketch {
 public:
  /// Default geometry from the paper: 40 bitmaps of 32 bits fit (with RLE)
  /// into one 48-byte TinyDB message; expected relative error is about
  /// 0.78/sqrt(40) ~= 12%, the approximation error quoted in Section 1.
  static constexpr int kDefaultBitmaps = 40;

  explicit FmSketch(int num_bitmaps = kDefaultBitmaps, uint64_t seed = 0);

  /// Inserts one distinct item. Re-inserting the same key (same seed) is a
  /// no-op on the final union, by construction.
  void AddKey(uint64_t key);

  /// Inserts `value` distinct sub-items derived from `key` (duplicate-
  /// insensitive Sum of non-negative integers). AddValue(x, 1) is NOT the
  /// same stream position as AddKey(x); use one convention per aggregate.
  void AddValue(uint64_t key, uint64_t value);

  /// Bitwise-OR union; both sketches must share geometry and seed.
  void Merge(const FmSketch& other);

  /// Resets every bitmap to zero in place (no reallocation); geometry and
  /// seed are kept. The engines' per-epoch scratch sketches are recycled
  /// this way instead of being re-heap-allocated every epoch.
  void Clear();

  /// Fixed-geometry copy: same as operator= but checked to never touch the
  /// heap (both sketches must already share geometry).
  void AssignFrom(const FmSketch& other);

  /// ORs a raw bitmap bank of matching geometry into this sketch. The memo
  /// below replays cached AddValue banks through this path.
  void OrBits(const std::vector<uint32_t>& bits);

  /// Span form for callers that hold a bank as a slice of a larger arena
  /// (the SoA engine core); same semantics, no temporary vector.
  void OrBits(const uint32_t* bits, size_t count);

  /// Sets the bit AddKey(key) would set, directly in a raw bank of
  /// `num_bitmaps` 32-bit bitmaps under `seed`. AddKey and the SoA arena
  /// kernels share this one hashing core, so the two paths cannot drift.
  static void AddKeyBits(uint64_t key, uint64_t seed, uint32_t* bank,
                         size_t num_bitmaps);

  /// Sets the bits AddValue(key, value) would set, directly in a raw bank
  /// of `num_bitmaps` bitmaps under `seed` (the flat frequent-items class
  /// banks hold their per-item counters this way).
  static void AddValueBits(uint64_t key, uint64_t value, uint64_t seed,
                           uint32_t* bank, size_t num_bitmaps);

  /// Estimate() of a raw bank of `num_bitmaps` bitmaps.
  static double EstimateBits(const uint32_t* bank, size_t num_bitmaps);

  /// PCSA estimate of the number of distinct insertions, with the standard
  /// small-range correction (k/phi * (2^{S/k} - 2^{-1.75 S/k})) so that an
  /// empty sketch estimates 0.
  double Estimate() const;

  /// True if no bit is set.
  bool Empty() const;

  /// Size of the run-length-encoded representation (see rle.h); the unit of
  /// the paper's message-size accounting.
  size_t EncodedBytes() const;

  /// Raw size without compression: bitmaps * 4 bytes.
  size_t RawBytes() const { return bitmaps_.size() * sizeof(uint32_t); }

  int num_bitmaps() const { return static_cast<int>(bitmaps_.size()); }
  uint64_t seed() const { return seed_; }
  const std::vector<uint32_t>& bitmaps() const { return bitmaps_; }

  /// Structural equality (same geometry, same bits).
  bool operator==(const FmSketch& other) const {
    return seed_ == other.seed_ && bitmaps_ == other.bitmaps_;
  }

 private:
  static constexpr int kBitsPerBitmap = 32;

  uint64_t seed_;
  std::vector<uint32_t> bitmaps_;
};

/// Memoized AddValue. AddValue is a pure function of (key, value, seed,
/// geometry) -- its "randomness" is hash-seeded -- so the bitmap bank a
/// (key, value) insertion produces can be cached and OR-ed back in, bit
/// identical to re-running the O(bitmaps * bits) binomial simulation. One
/// entry is kept per key (the last value seen), which matches the
/// slowly-changing sensor streams (LabData, diurnal synthetics) where a
/// node's reading is unchanged for many consecutive epochs.
///
/// NOT thread-safe: use one memo (in practice, one aggregate instance) per
/// thread. The parallel Experiment trial runner builds per-trial aggregates,
/// so each memo stays thread-local.
class FmValueMemo {
 public:
  FmValueMemo(int num_bitmaps, uint64_t seed)
      : seed_(seed), scratch_(num_bitmaps, seed) {}

  /// ORs the bank AddValue(key, value) would set into `into` (which must
  /// share geometry and seed with the memo).
  void AddValue(FmSketch* into, uint64_t key, uint64_t value);

  /// Arena form: ORs the same bank into a raw bank slice of the memo's
  /// geometry (the SoA engines' contrib/synopsis arenas).
  void AddValueTo(uint32_t* bank, size_t num_bitmaps, uint64_t key,
                  uint64_t value);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  struct Entry {
    uint64_t value = 0;
    std::vector<uint32_t> bits;
  };

  /// The cached (recomputing on miss) bank for (key, value); value > 0.
  const std::vector<uint32_t>& LookupBank(uint64_t key, uint64_t value);

  uint64_t seed_;
  FmSketch scratch_;
  std::unordered_map<uint64_t, Entry> cache_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace td

#endif  // TD_SKETCH_FM_SKETCH_H_
