#include "sketch/fm_sketch.h"

#include <cmath>

#include "sketch/rle.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace td {

namespace {

// Flajolet-Martin magic constant phi.
constexpr double kPhi = 0.77351;
// Small-range correction exponent (Flajolet & Martin 1985, Section 5).
constexpr double kKappa = 1.75;

}  // namespace

FmSketch::FmSketch(int num_bitmaps, uint64_t seed) : seed_(seed) {
  TD_CHECK_GT(num_bitmaps, 0);
  bitmaps_.assign(static_cast<size_t>(num_bitmaps), 0u);
}

void FmSketch::AddKey(uint64_t key) {
  AddKeyBits(key, seed_, bitmaps_.data(), bitmaps_.size());
}

void FmSketch::AddKeyBits(uint64_t key, uint64_t seed, uint32_t* bank,
                          size_t num_bitmaps) {
  const uint64_t h = Hash64(key, seed);
  const size_t j = static_cast<size_t>(h % num_bitmaps);
  // Geometric position from an independent hash: P(pos = b) = 2^-(b+1).
  const uint64_t g = Hash64(key, seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  int pos = CountTrailingZeros64(g);
  if (pos >= kBitsPerBitmap) pos = kBitsPerBitmap - 1;
  bank[j] |= (1u << pos);
}

void FmSketch::AddValue(uint64_t key, uint64_t value) {
  AddValueBits(key, value, seed_, bitmaps_.data(), bitmaps_.size());
}

void FmSketch::AddValueBits(uint64_t key, uint64_t value, uint64_t seed,
                            uint32_t* bank, size_t num_bitmaps) {
  if (value == 0) return;
  // Deterministic simulation of `value` distinct sub-item insertions.
  // Randomness is a pure function of (key, seed): replaying the same
  // logical insertion reproduces the same bitmap bits, so ORing copies is
  // idempotent -- the whole point of duplicate-insensitive Sum.
  Rng rng(Hash64(key, seed ^ 0xc3c3c3c3c3c3c3c3ULL));
  const size_t k = num_bitmaps;
  uint64_t remaining = value;
  for (size_t j = 0; j < k && remaining > 0; ++j) {
    // Multinomial allocation over bitmaps via sequential binomials.
    uint64_t nj = (j + 1 == k)
                      ? remaining
                      : rng.Binomial(remaining, 1.0 / static_cast<double>(k - j));
    remaining -= nj;
    // Allocate nj draws over geometric positions: conditioned on reaching
    // position b, a draw stops there with probability 1/2, so successive
    // halving is an exact simulation of the joint distribution.
    uint64_t at_or_above = nj;
    for (int b = 0; b < kBitsPerBitmap && at_or_above > 0; ++b) {
      uint64_t at_b = (b + 1 == kBitsPerBitmap)
                          ? at_or_above
                          : rng.Binomial(at_or_above, 0.5);
      if (at_b > 0) bank[j] |= (1u << b);
      at_or_above -= at_b;
    }
  }
}

void FmSketch::Merge(const FmSketch& other) {
  TD_CHECK_EQ(bitmaps_.size(), other.bitmaps_.size());
  TD_CHECK_EQ(seed_, other.seed_);
  for (size_t i = 0; i < bitmaps_.size(); ++i) bitmaps_[i] |= other.bitmaps_[i];
}

void FmSketch::Clear() {
  for (uint32_t& bm : bitmaps_) bm = 0;
}

void FmSketch::AssignFrom(const FmSketch& other) {
  TD_CHECK_EQ(bitmaps_.size(), other.bitmaps_.size());
  seed_ = other.seed_;
  // Equal sizes: vector assignment copies element-wise, no reallocation.
  bitmaps_ = other.bitmaps_;
}

void FmSketch::OrBits(const std::vector<uint32_t>& bits) {
  OrBits(bits.data(), bits.size());
}

void FmSketch::OrBits(const uint32_t* bits, size_t count) {
  TD_CHECK_EQ(bitmaps_.size(), count);
  for (size_t i = 0; i < count; ++i) bitmaps_[i] |= bits[i];
}

double FmSketch::Estimate() const {
  return EstimateBits(bitmaps_.data(), bitmaps_.size());
}

double FmSketch::EstimateBits(const uint32_t* bank, size_t num_bitmaps) {
  const double k = static_cast<double>(num_bitmaps);
  double s = 0.0;
  for (size_t i = 0; i < num_bitmaps; ++i) s += LowestUnsetBit32(bank[i]);
  const double ratio = s / k;
  // Small-range corrected PCSA estimator; exactly 0 when every bitmap is
  // empty (ratio == 0). exp2 replaces the two pow(2, x) calls on the
  // per-epoch evaluation path.
  return (k / kPhi) * (std::exp2(ratio) - std::exp2(-kKappa * ratio));
}

const std::vector<uint32_t>& FmValueMemo::LookupBank(uint64_t key,
                                                     uint64_t value) {
  Entry& e = cache_[key];
  if (e.bits.empty() || e.value != value) {
    ++misses_;
    scratch_.Clear();
    scratch_.AddValue(key, value);
    e.value = value;
    e.bits = scratch_.bitmaps();
  } else {
    ++hits_;
  }
  return e.bits;
}

void FmValueMemo::AddValue(FmSketch* into, uint64_t key, uint64_t value) {
  TD_DCHECK(into->seed() == seed_ &&
            into->num_bitmaps() == scratch_.num_bitmaps());
  if (value == 0) return;  // same no-op as FmSketch::AddValue
  const std::vector<uint32_t>& bank = LookupBank(key, value);
  into->OrBits(bank.data(), bank.size());
}

void FmValueMemo::AddValueTo(uint32_t* bank, size_t num_bitmaps, uint64_t key,
                             uint64_t value) {
  TD_DCHECK(static_cast<int>(num_bitmaps) == scratch_.num_bitmaps());
  if (value == 0) return;  // same no-op as FmSketch::AddValue
  const std::vector<uint32_t>& bits = LookupBank(key, value);
  for (size_t i = 0; i < num_bitmaps; ++i) bank[i] |= bits[i];
}

size_t FmSketch::EncodedBytes() const { return BankRleBytes(bitmaps_); }

bool FmSketch::Empty() const {
  for (uint32_t bm : bitmaps_) {
    if (bm != 0) return false;
  }
  return true;
}

}  // namespace td
