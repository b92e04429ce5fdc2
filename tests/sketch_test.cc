// Unit and property tests for src/sketch: FM sketches, KMV sketches,
// sample synopses, and the RLE codec. The load-bearing property throughout
// is duplicate insensitivity: merging a synopsis with itself (or re-adding
// the same logical contribution) must not change it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "sketch/fm_sketch.h"
#include "sketch/kmv_sketch.h"
#include "sketch/rle.h"
#include "sketch/sample_synopsis.h"
#include "util/rng.h"

namespace td {
namespace {

// ------------------------------------------------------------- FmSketch --

TEST(FmSketchTest, EmptyEstimatesZero) {
  FmSketch s(40, 1);
  EXPECT_TRUE(s.Empty());
  EXPECT_DOUBLE_EQ(s.Estimate(), 0.0);
}

TEST(FmSketchTest, AddKeyIdempotent) {
  FmSketch a(40, 1);
  a.AddKey(123);
  FmSketch b = a;
  b.AddKey(123);
  EXPECT_TRUE(a == b);
}

TEST(FmSketchTest, MergeIsIdempotent) {
  FmSketch a(40, 1);
  for (uint64_t k = 0; k < 100; ++k) a.AddKey(k);
  FmSketch b = a;
  b.Merge(a);
  EXPECT_TRUE(a == b);
}

TEST(FmSketchTest, MergeIsCommutative) {
  FmSketch a(40, 1), b(40, 1);
  for (uint64_t k = 0; k < 50; ++k) a.AddKey(k);
  for (uint64_t k = 25; k < 80; ++k) b.AddKey(k);
  FmSketch ab = a;
  ab.Merge(b);
  FmSketch ba = b;
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);
}

TEST(FmSketchTest, MergeIsAssociative) {
  FmSketch a(16, 3), b(16, 3), c(16, 3);
  for (uint64_t k = 0; k < 30; ++k) a.AddKey(k * 3);
  for (uint64_t k = 0; k < 30; ++k) b.AddKey(k * 3 + 1);
  for (uint64_t k = 0; k < 30; ++k) c.AddKey(k * 3 + 2);
  FmSketch left = a;
  left.Merge(b);
  left.Merge(c);
  FmSketch right_bc = b;
  right_bc.Merge(c);
  FmSketch right = a;
  right.Merge(right_bc);
  EXPECT_TRUE(left == right);
}

TEST(FmSketchTest, MergeEqualsUnionOfInsertions) {
  FmSketch a(40, 9), b(40, 9), u(40, 9);
  for (uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) a.AddKey(k);
    if (k % 3 == 0) b.AddKey(k);
    if (k % 2 == 0 || k % 3 == 0) u.AddKey(k);
  }
  FmSketch merged = a;
  merged.Merge(b);
  EXPECT_TRUE(merged == u);
}

TEST(FmSketchTest, DistinctCountAccuracy) {
  // The estimator is unbiased with sd ~ 0.78/sqrt(40) ~ 12%; the mean over
  // trials must be well within one sd, and no single trial should be a
  // gross outlier (5 sigma).
  const uint64_t n = 5000;
  double mean = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    FmSketch s(40, 100 + trial);
    for (uint64_t k = 0; k < n; ++k) s.AddKey(k ^ (uint64_t{1} << (40 + trial % 8)));
    double est = s.Estimate();
    EXPECT_NEAR(est, static_cast<double>(n), 0.62 * n) << "trial " << trial;
    mean += est / trials;
  }
  EXPECT_NEAR(mean, static_cast<double>(n), 0.10 * n);
}

TEST(FmSketchTest, AccuracyImprovesWithMoreBitmaps) {
  // Average absolute relative error over trials must shrink as bitmaps grow.
  auto avg_err = [](int bitmaps) {
    double total = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      FmSketch s(bitmaps, 1000 + t);
      const uint64_t n = 20000;
      for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
      total += std::abs(s.Estimate() - static_cast<double>(n)) / n;
    }
    return total / trials;
  };
  EXPECT_LT(avg_err(64), avg_err(4));
}

TEST(FmSketchTest, AddValueMatchesRepeatedDistinctInsertions) {
  // AddValue(key, v) must estimate ~v, like v distinct keys would.
  for (uint64_t v : {1ull, 10ull, 100ull, 10000ull}) {
    FmSketch s(40, 5);
    s.AddValue(777, v);
    double est = s.Estimate();
    EXPECT_NEAR(est, static_cast<double>(v), 0.5 * v + 3.0) << "v=" << v;
  }
}

TEST(FmSketchTest, AddValueDeterministicAndIdempotent) {
  FmSketch a(40, 5), b(40, 5);
  a.AddValue(42, 1000);
  b.AddValue(42, 1000);
  EXPECT_TRUE(a == b);
  // Duplicate-insensitivity: ORing a replayed contribution changes nothing.
  FmSketch c = a;
  c.Merge(b);
  EXPECT_TRUE(c == a);
}

TEST(FmSketchTest, AddValueZeroIsNoop) {
  FmSketch s(40, 5);
  s.AddValue(1, 0);
  EXPECT_TRUE(s.Empty());
}

TEST(FmSketchTest, SumAdditivityAcrossKeys) {
  // Sum of values across distinct keys estimates the total.
  FmSketch s(40, 6);
  uint64_t total = 0;
  Rng rng(71);
  for (uint64_t node = 1; node <= 100; ++node) {
    uint64_t v = rng.NextBounded(200);
    s.AddValue(node, v);
    total += v;
  }
  EXPECT_NEAR(s.Estimate(), static_cast<double>(total), 0.35 * total);
}

TEST(FmSketchTest, EncodedSmallerThanRaw) {
  FmSketch s(40, 7);
  for (uint64_t k = 0; k < 600; ++k) s.AddKey(k);
  EXPECT_LT(s.EncodedBytes(), s.RawBytes());
  // The paper's headline packing: 40 populated Sum synopses fit one 48-byte
  // TinyDB message (transposed bank RLE).
  EXPECT_LE(s.EncodedBytes(), 48u);
}

TEST(RleTest, BankCodecRoundtrip) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint32_t> bitmaps;
    for (int i = 0; i < 40; ++i) bitmaps.push_back(static_cast<uint32_t>(rng.Next()));
    auto bytes = EncodeBankRle(bitmaps);
    auto decoded = DecodeBankRle(bytes, 40);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), bitmaps);
    EXPECT_EQ(bytes.size(), BankRleBytes(bitmaps));
  }
  // Populated FM banks roundtrip too.
  FmSketch s(40, 9);
  for (uint64_t k = 0; k < 2000; ++k) s.AddKey(k);
  auto bytes = EncodeBankRle(s.bitmaps());
  auto decoded = DecodeBankRle(bytes, 40);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), s.bitmaps());
}

// Bit-at-a-time reference implementations of the bank codec, kept here so
// the word-level fast paths in rle.cc are pinned against the original
// semantics (same runs, same gamma codes, same byte stream).
namespace reference {

bool BankBit(const std::vector<uint32_t>& bitmaps, size_t index) {
  size_t pos = index / bitmaps.size();
  size_t j = index % bitmaps.size();
  return (bitmaps[j] >> pos) & 1;
}

std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps) {
  BitWriter w;
  if (bitmaps.empty()) return w.bytes();
  const size_t total = bitmaps.size() * 32;
  bool current = BankBit(bitmaps, 0);
  w.WriteBit(current);
  uint64_t run = 1;
  for (size_t i = 1; i < total; ++i) {
    bool bit = BankBit(bitmaps, i);
    if (bit == current) {
      ++run;
    } else {
      w.WriteGamma(run);
      current = bit;
      run = 1;
    }
  }
  w.WriteGamma(run);
  return w.bytes();
}

size_t BankRleBytes(const std::vector<uint32_t>& bitmaps) {
  if (bitmaps.empty()) return 0;
  const size_t total = bitmaps.size() * 32;
  size_t bits = 1;
  bool current = BankBit(bitmaps, 0);
  uint64_t run = 1;
  auto gamma_bits = [](uint64_t n) {
    int len = 63 - std::countl_zero(n);
    return static_cast<size_t>(2 * len + 1);
  };
  for (size_t i = 1; i < total; ++i) {
    bool bit = BankBit(bitmaps, i);
    if (bit == current) {
      ++run;
    } else {
      bits += gamma_bits(run);
      current = bit;
      run = 1;
    }
  }
  bits += gamma_bits(run);
  return (bits + 7) / 8;
}

}  // namespace reference

std::vector<uint32_t> AdversarialBank(int which, int count, Rng* rng) {
  std::vector<uint32_t> bank;
  for (int i = 0; i < count; ++i) {
    switch (which) {
      case 0:
        bank.push_back(0u);  // all-zero
        break;
      case 1:
        bank.push_back(~0u);  // all-one
        break;
      case 2:
        bank.push_back(i % 2 ? 0x55555555u : 0xaaaaaaaau);  // alternating
        break;
      case 3:
        bank.push_back(static_cast<uint32_t>(rng->Next()));  // random
        break;
      default:
        bank.push_back(static_cast<uint32_t>(rng->Next()) &
                       static_cast<uint32_t>(rng->Next()));  // sparse random
    }
  }
  return bank;
}

TEST(RleTest, BankCodecPropertyRoundtrip) {
  // Random and adversarial banks over several bank widths: encoding must
  // round-trip and BankRleBytes must always equal the encoded size.
  Rng rng(311);
  for (int count : {1, 3, 40, 64, 100}) {
    for (int which = 0; which < 5; ++which) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<uint32_t> bank = AdversarialBank(which, count, &rng);
        auto bytes = EncodeBankRle(bank);
        EXPECT_EQ(bytes.size(), BankRleBytes(bank))
            << "count=" << count << " which=" << which;
        auto decoded = DecodeBankRle(bytes, bank.size());
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value(), bank)
            << "count=" << count << " which=" << which;
      }
    }
  }
}

TEST(RleTest, WordLevelBitMatchesBitAtATimeReference) {
  // Golden: the fast paths must produce byte-identical encodings and
  // identical sizes to the original bit-at-a-time implementation.
  Rng rng(313);
  for (int count : {1, 7, 40, 65}) {
    for (int which = 0; which < 5; ++which) {
      std::vector<uint32_t> bank = AdversarialBank(which, count, &rng);
      EXPECT_EQ(EncodeBankRle(bank), reference::EncodeBankRle(bank))
          << "count=" << count << " which=" << which;
      EXPECT_EQ(BankRleBytes(bank), reference::BankRleBytes(bank))
          << "count=" << count << " which=" << which;
    }
  }
  // Populated FM banks, various fill levels.
  for (uint64_t n : {1ull, 50ull, 5000ull, 200000ull}) {
    FmSketch s(40, 17);
    for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
    EXPECT_EQ(EncodeBankRle(s.bitmaps()), reference::EncodeBankRle(s.bitmaps()));
    EXPECT_EQ(BankRleBytes(s.bitmaps()), reference::BankRleBytes(s.bitmaps()));
  }
}

TEST(RleTest, DecodeRejectsOverlongRun) {
  // A run that overruns the bank is corrupt input, not a silent clamp.
  BitWriter w;
  w.WriteBit(true);
  w.WriteGamma(40 * 32 + 7);  // bank holds 1280 bits; claim 1287
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(RleTest, DecodeRejectsOverlongMiddleRun) {
  BitWriter w;
  w.WriteBit(false);
  w.WriteGamma(1000);  // 280 bits of room left...
  w.WriteGamma(300);   // ...but the next run claims 300
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(RleTest, DecodeRejectsWrappedGammaRun) {
  // A gamma code with >= 64 leading zeros would wrap its value modulo
  // 2^64 (e.g. 2^66 + 4 reads back as 4) and sneak past the overrun
  // check; the reader must reject it as malformed instead.
  BitWriter w;
  w.WriteBit(true);
  w.WriteBits(0, 64);          // 66 leading zeros: claims a 67-bit value
  w.WriteBits(0, 2);
  w.WriteBits(~0ULL, 64);      // plenty of value bits to keep reading
  w.WriteBits(~0ULL, 64);
  auto result = DecodeBankRle(w.bytes(), 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(RleTest, DecodeRejectsTruncatedStream) {
  FmSketch s(40, 21);
  for (uint64_t k = 0; k < 500; ++k) s.AddKey(k);
  auto bytes = EncodeBankRle(s.bitmaps());
  bytes.resize(bytes.size() / 2);  // cut the stream mid-run
  auto result = DecodeBankRle(bytes, 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(RleTest, DecodeRejectsEmptyStream) {
  auto result = DecodeBankRle({}, 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

// Checks one bank against the bit-at-a-time reference: BankRleBytes and
// EncodeBankRle byte for byte, then a DecodeBankRle round trip.
void ExpectMatchesReference(const std::vector<uint32_t>& bank) {
  const std::vector<uint8_t> bytes = EncodeBankRle(bank);
  ASSERT_EQ(bytes, reference::EncodeBankRle(bank)) << "count=" << bank.size();
  ASSERT_EQ(BankRleBytes(bank), reference::BankRleBytes(bank))
      << "count=" << bank.size();
  auto decoded = DecodeBankRle(bytes, bank.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value(), bank);
}

// A bank whose all-ones rows are exactly [0, lo) and whose set rows end
// exactly at hi (0 <= lo <= hi <= 32), with random bits in between.
std::vector<uint32_t> BankWithFringe(int lo, int hi, size_t count, Rng* rng) {
  const uint32_t low = lo == 0 ? 0u : (~0u >> (32 - lo));
  const uint32_t span = hi == 0 ? 0u : (~0u >> (32 - hi));
  std::vector<uint32_t> bank(count);
  for (uint32_t& bm : bank) {
    bm = low | (static_cast<uint32_t>(rng->Next()) & span);
  }
  if (hi > lo) {
    bank[rng->NextBounded(count)] |= 1u << (hi - 1);
    bank[rng->NextBounded(count)] &= ~(1u << lo);
  }
  return bank;
}

TEST(RleTest, KernelMatchesReferenceOnEveryWidth) {
  // Every width from 1 to 130 crosses the 8-bitmap block and 64-bitmap
  // chunk boundaries of the fringe tiles, with solid, random and FM-shaped
  // banks at each.
  Rng rng(331);
  for (size_t count = 1; count <= 130; ++count) {
    ExpectMatchesReference(std::vector<uint32_t>(count, 0u));
    ExpectMatchesReference(std::vector<uint32_t>(count, ~0u));
    for (int which = 2; which < 5; ++which) {
      ExpectMatchesReference(
          AdversarialBank(which, static_cast<int>(count), &rng));
    }
    const int lo = static_cast<int>(rng.NextBounded(12));
    const int hi = lo + 1 + static_cast<int>(rng.NextBounded(12));
    ExpectMatchesReference(BankWithFringe(lo, hi, count, &rng));
  }
}

TEST(RleTest, KernelMatchesReferenceOnWideBanks) {
  // Past 512 bitmaps the fringe tiles are rebuilt window by window.
  Rng rng(333);
  for (size_t count : {511u, 512u, 513u, 1030u}) {
    for (int which = 2; which < 5; ++which) {
      ExpectMatchesReference(
          AdversarialBank(which, static_cast<int>(count), &rng));
    }
    ExpectMatchesReference(BankWithFringe(3, 14, count, &rng));
  }
}

TEST(RleTest, KernelMatchesReferenceOnSingleBitBanks) {
  // One set bit (and, mirrored, one clear bit) at every (bitmap, position).
  for (size_t count : {40u, 65u}) {
    for (size_t j = 0; j < count; ++j) {
      for (int pos = 0; pos < 32; ++pos) {
        std::vector<uint32_t> bank(count, 0u);
        bank[j] = 1u << pos;
        ExpectMatchesReference(bank);
        for (uint32_t& bm : bank) bm = ~bm;
        ExpectMatchesReference(bank);
      }
    }
  }
}

TEST(RleTest, KernelMatchesReferenceOnExactFringeWidths) {
  // Fringes of 8, 9, 16, 17 and 32 rows: whole 8-row tiles, and one row
  // past them, at several row offsets.
  Rng rng(337);
  for (int rows : {8, 9, 16, 17, 32}) {
    for (int lo = 0; lo + rows <= 32; lo += 3) {
      for (size_t count : {1u, 8u, 40u, 64u, 65u, 130u}) {
        std::vector<uint32_t> bank = BankWithFringe(lo, lo + rows, count, &rng);
        uint32_t all = ~0u, any = 0;
        for (uint32_t bm : bank) {
          all &= bm;
          any |= bm;
        }
        ASSERT_EQ(std::countr_one(all), lo);
        ASSERT_EQ(32 - std::countl_zero(any), lo + rows);
        ExpectMatchesReference(bank);
      }
    }
  }
}

TEST(RleTest, KernelMatchesReferenceOnFmBanks) {
  for (uint64_t n : {1ull, 10ull, 600ull, 40000ull, 1000000ull}) {
    FmSketch by_key(40, 19);
    for (uint64_t k = 0; k < n; ++k) by_key.AddKey(k);
    ExpectMatchesReference(by_key.bitmaps());
    FmSketch by_value(40, 23);
    by_value.AddValue(7, n);
    ExpectMatchesReference(by_value.bitmaps());
  }
}

TEST(RleTest, KernelMatchesReferenceOnRandomSweep) {
  // 200k seeded banks: random widths, fringe offsets, fringe widths and
  // fill densities.
  Rng rng(347);
  for (int trial = 0; trial < 200000; ++trial) {
    const size_t count = 1 + rng.NextBounded(48);
    const int lo = static_cast<int>(rng.NextBounded(33));
    const int hi = lo + static_cast<int>(rng.NextBounded(33 - lo));
    std::vector<uint32_t> bank = BankWithFringe(lo, hi, count, &rng);
    if (trial % 2 == 1) {
      // Thin the fringe so long runs cross row and tile boundaries.
      for (uint32_t& bm : bank) {
        const uint32_t low = lo == 0 ? 0u : (~0u >> (32 - lo));
        bm = (bm & static_cast<uint32_t>(rng.Next())) | low;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(bank)) << "trial " << trial;
  }
}

TEST(RleTest, DecodeBitmapsRejectsTruncatedStream) {
  std::vector<uint32_t> bitmaps(40, 0x0000ffffu);
  auto bytes = EncodeBitmapsRle(bitmaps);
  bytes.resize(bytes.size() / 2);
  auto result = DecodeBitmapsRle(bytes, 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(RleTest, DecodeBitmapsRejectsOverlongFringe) {
  // A 6-bit fringe field can claim up to 63 bits; a bitmap holds 32.
  BitWriter w;
  w.WriteBits(0, 5);
  w.WriteBits(40, 6);
  w.WriteBits(~0ULL, 40);
  auto result = DecodeBitmapsRle(w.bytes(), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

TEST(RleTest, DecodeBitmapsRejectsPrefixPlusFringeOverrun) {
  // A 20-bit prefix plus a 20-bit fringe would shift bits out of the top.
  BitWriter w;
  w.WriteBits(20, 5);
  w.WriteBits(20, 6);
  w.WriteBits(0xfffff, 20);
  auto result = DecodeBitmapsRle(w.bytes(), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kOutOfRange);
}

// Decodes `bytes` with both decoders at `count` bitmaps. Either decode may
// fail, but must not abort; a decoded bank must re-encode to the size its
// sizer reports.
void DecodeMutated(const std::vector<uint8_t>& bytes, size_t count) {
  auto bank = DecodeBankRle(bytes, count);
  if (bank.ok()) {
    ASSERT_EQ(bank.value().size(), count);
    ASSERT_EQ(BankRleBytes(bank.value()), EncodeBankRle(bank.value()).size());
  }
  auto bitmaps = DecodeBitmapsRle(bytes, count);
  if (bitmaps.ok()) {
    ASSERT_EQ(bitmaps.value().size(), count);
    ASSERT_EQ(RleEncodedBytes(bitmaps.value()),
              EncodeBitmapsRle(bitmaps.value()).size());
  }
}

TEST(RleTest, DecodersSurviveMutatedInput) {
  // Seeded mutation fuzzing with a fixed budget: truncation at every byte,
  // 1-3 bit flips, appended garbage, and a bitmap count off by one.
  Rng rng(353);
  std::vector<std::vector<uint32_t>> seeds;
  for (uint64_t n : {0ull, 1ull, 10ull, 600ull, 40000ull}) {
    FmSketch s(40, 29);
    for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
    seeds.push_back(s.bitmaps());
  }
  for (int count : {1, 7, 40, 65}) {
    for (int which = 0; which < 5; ++which) {
      seeds.push_back(AdversarialBank(which, count, &rng));
    }
  }
  for (const std::vector<uint32_t>& bank : seeds) {
    const size_t count = bank.size();
    for (const std::vector<uint8_t>& encoded :
         {EncodeBankRle(bank), EncodeBitmapsRle(bank)}) {
      for (size_t len = 0; len < encoded.size(); ++len) {
        const std::vector<uint8_t> cut(encoded.begin(), encoded.begin() + len);
        for (size_t c : {count - 1, count, count + 1}) DecodeMutated(cut, c);
      }
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint8_t> flipped = encoded;
        const int flips = 1 + static_cast<int>(rng.NextBounded(3));
        for (int f = 0; f < flips; ++f) {
          const size_t bit = rng.NextBounded(flipped.size() * 8);
          flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        for (size_t c : {count - 1, count, count + 1}) {
          DecodeMutated(flipped, c);
        }
      }
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint8_t> padded = encoded;
        const size_t extra = 1 + rng.NextBounded(16);
        for (size_t b = 0; b < extra; ++b) {
          padded.push_back(static_cast<uint8_t>(rng.Next()));
        }
        for (size_t c : {count - 1, count, count + 1}) DecodeMutated(padded, c);
      }
    }
    // A strict prefix of a canonical encoding never decodes at its count.
    const std::vector<uint8_t> encoded = EncodeBankRle(bank);
    const std::vector<uint8_t> cut(encoded.begin(), encoded.end() - 1);
    EXPECT_FALSE(DecodeBankRle(cut, count).ok());
  }
}

// --------------------------------------------------------- FmValueMemo --

TEST(FmValueMemoTest, BitIdenticalToAddValue) {
  FmValueMemo memo(40, 5);
  Rng rng(401);
  for (int i = 0; i < 50; ++i) {
    uint64_t key = rng.NextBounded(10);      // keys repeat
    uint64_t value = 1 + rng.NextBounded(4);  // values repeat per key
    FmSketch direct(40, 5);
    direct.AddValue(key, value);
    FmSketch memoized(40, 5);
    memo.AddValue(&memoized, key, value);
    EXPECT_TRUE(direct == memoized) << "key=" << key << " value=" << value;
  }
}

TEST(FmValueMemoTest, RepeatedReadingHitsCache) {
  FmValueMemo memo(40, 5);
  FmSketch s(40, 5);
  for (int epoch = 0; epoch < 10; ++epoch) {
    s.Clear();
    for (uint64_t node = 0; node < 8; ++node) memo.AddValue(&s, node, 100);
  }
  EXPECT_EQ(memo.misses(), 8u);       // first epoch simulates
  EXPECT_EQ(memo.hits(), 9u * 8u);    // the rest replay cached banks
}

TEST(FmValueMemoTest, ZeroValueIsNoop) {
  FmValueMemo memo(40, 5);
  FmSketch s(40, 5);
  memo.AddValue(&s, 3, 0);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(memo.misses(), 0u);
}

TEST(FmSketchTest, ClearAndAssignFromReuseStorage) {
  FmSketch a(40, 5), b(40, 5);
  a.AddValue(1, 1000);
  b.AddValue(2, 2000);
  FmSketch c = a;
  c.Clear();
  EXPECT_TRUE(c.Empty());
  c.AssignFrom(b);
  EXPECT_TRUE(c == b);
  c.OrBits(a.bitmaps());
  FmSketch merged = a;
  merged.Merge(b);
  EXPECT_TRUE(c == merged);
}

// ------------------------------------------------------------------ RLE --

TEST(RleTest, BitWriterReaderRoundtrip) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  w.WriteBit(true);
  w.WriteBits(0x12345678, 32);
  BitReader r(w.bytes());
  EXPECT_EQ(r.ReadBits(4), 0b1011u);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_EQ(r.ReadBits(32), 0x12345678u);
}

TEST(RleTest, RoundtripSpecialBitmaps) {
  std::vector<uint32_t> bitmaps{0u,          1u,         0xffffffffu,
                                0x80000000u, 0x7fffffffu, 0b1011u,
                                0xfff00fffu, 0x55555555u};
  auto bytes = EncodeBitmapsRle(bitmaps);
  auto decoded = DecodeBitmapsRle(bytes, bitmaps.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), bitmaps);
}

TEST(RleTest, RoundtripRandomBitmaps) {
  Rng rng(73);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> bitmaps;
    for (int i = 0; i < 40; ++i) {
      bitmaps.push_back(static_cast<uint32_t>(rng.Next()));
    }
    auto bytes = EncodeBitmapsRle(bitmaps);
    auto decoded = DecodeBitmapsRle(bytes, 40);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), bitmaps);
    EXPECT_EQ(bytes.size(), RleEncodedBytes(bitmaps));
  }
}

TEST(RleTest, TypicalFmBankCompressesWell) {
  // FM bitmaps (prefix of ones + fringe) compress far better than random.
  FmSketch s(40, 11);
  for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
  size_t fm_bytes = RleEncodedBytes(s.bitmaps());
  Rng rng(79);
  std::vector<uint32_t> random;
  for (int i = 0; i < 40; ++i) random.push_back(static_cast<uint32_t>(rng.Next()));
  size_t random_bytes = RleEncodedBytes(random);
  EXPECT_LT(fm_bytes, random_bytes);
}

// ------------------------------------------------------------ KmvSketch --

TEST(KmvSketchTest, ExactBelowK) {
  KmvSketch s(64, 1);
  for (uint64_t k = 0; k < 50; ++k) s.AddKey(k);
  EXPECT_FALSE(s.Saturated());
  EXPECT_DOUBLE_EQ(s.Estimate(), 50.0);
}

TEST(KmvSketchTest, DuplicateKeysIgnored) {
  KmvSketch s(64, 1);
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t k = 0; k < 30; ++k) s.AddKey(k);
  }
  EXPECT_DOUBLE_EQ(s.Estimate(), 30.0);
}

TEST(KmvSketchTest, EstimateAccuracy) {
  const uint64_t n = 50000;
  KmvSketch s(1024, 2);
  for (uint64_t k = 0; k < n; ++k) s.AddKey(k);
  EXPECT_TRUE(s.Saturated());
  // relative error ~ 1/sqrt(k-2) ~ 3%; allow 4 sigma.
  EXPECT_NEAR(s.Estimate(), static_cast<double>(n), 0.13 * n);
}

TEST(KmvSketchTest, MergeEqualsUnion) {
  KmvSketch a(256, 3), b(256, 3), u(256, 3);
  for (uint64_t k = 0; k < 3000; ++k) {
    if (k % 2 == 0) a.AddKey(k);
    if (k % 3 == 0) b.AddKey(k);
    if (k % 2 == 0 || k % 3 == 0) u.AddKey(k);
  }
  a.Merge(b);
  EXPECT_EQ(a.minima(), u.minima());
}

TEST(KmvSketchTest, MergeIdempotent) {
  KmvSketch a(128, 4);
  for (uint64_t k = 0; k < 1000; ++k) a.AddKey(k);
  KmvSketch b = a;
  b.Merge(a);
  EXPECT_EQ(a.minima(), b.minima());
}

TEST(KmvSketchTest, AddCountActsAsSum) {
  KmvSketch s(1024, 5);
  uint64_t total = 0;
  for (uint64_t node = 1; node <= 50; ++node) {
    s.AddCount(node, 100 + node);
    total += 100 + node;
  }
  EXPECT_NEAR(s.Estimate(), static_cast<double>(total), 0.15 * total);
}

TEST(KmvSketchTest, AddCountDuplicateInsensitive) {
  KmvSketch a(256, 6), b(256, 6);
  a.AddCount(7, 500);
  b.AddCount(7, 500);
  b.AddCount(7, 500);  // replay
  EXPECT_EQ(a.minima(), b.minima());
}

TEST(KmvSketchTest, RangeEfficientMatchesPlain) {
  KmvSketch a(64, 7), b(64, 7);
  for (uint64_t node = 1; node <= 20; ++node) {
    a.AddCount(node, 500);
    b.AddCountRangeEfficient(node, 500);
  }
  EXPECT_EQ(a.minima(), b.minima());
}

TEST(KmvSketchTest, KForRelativeError) {
  // 10% target -> k in the hundreds; must give error within target on
  // average (accuracy-preserving operator sizing, Definition 1).
  size_t k = KmvSketch::KForRelativeError(0.1);
  EXPECT_GE(k, 100u);
  double total_rel_err = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    KmvSketch s(k, 100 + t);
    const uint64_t n = 20000;
    for (uint64_t i = 0; i < n; ++i) s.AddKey(i);
    total_rel_err += std::abs(s.Estimate() - n) / n;
  }
  EXPECT_LT(total_rel_err / trials, 0.1);
}

TEST(KmvSketchTest, AccuracyPreservingUnderUnion) {
  // Definition 1: the union of two (eps,delta)-estimates is an
  // (eps,delta)-estimate of the sum. Empirically: union error stays within
  // the same band as single-sketch error.
  size_t k = 512;
  double err = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    KmvSketch a(k, 200 + t), b(k, 200 + t);
    for (uint64_t i = 0; i < 10000; ++i) a.AddKey(i);
    for (uint64_t i = 10000; i < 30000; ++i) b.AddKey(i);
    a.Merge(b);
    err += std::abs(a.Estimate() - 30000.0) / 30000.0;
  }
  EXPECT_LT(err / trials, 2.0 / std::sqrt(static_cast<double>(k)) * 3);
}

// ------------------------------------------------------ SampleSynopsis --

TEST(SampleSynopsisTest, KeepsCapacity) {
  SampleSynopsis s(10, 1);
  for (uint64_t id = 0; id < 100; ++id) s.Add(id, static_cast<double>(id));
  EXPECT_EQ(s.size(), 10u);
}

TEST(SampleSynopsisTest, DuplicateInsensitive) {
  SampleSynopsis a(10, 1), b(10, 1);
  for (uint64_t id = 0; id < 50; ++id) {
    a.Add(id, 1.0 * id);
    b.Add(id, 1.0 * id);
    b.Add(id, 1.0 * id);  // replay
  }
  b.Merge(a);  // merge with identical content
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id);
  }
}

TEST(SampleSynopsisTest, MergeEqualsUnion) {
  SampleSynopsis a(16, 2), b(16, 2), u(16, 2);
  for (uint64_t id = 0; id < 200; ++id) {
    if (id % 2 == 0) a.Add(id, 1.0);
    if (id % 3 == 0) b.Add(id, 1.0);
    if (id % 2 == 0 || id % 3 == 0) u.Add(id, 1.0);
  }
  a.Merge(b);
  ASSERT_EQ(a.size(), u.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, u.entries()[i].id);
  }
}

TEST(SampleSynopsisTest, SampleIsUniform) {
  // Every id should be retained with roughly equal probability across
  // seeds; check that low and high ids are sampled comparably often.
  int low = 0, high = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SampleSynopsis s(20, seed);
    for (uint64_t id = 0; id < 100; ++id) s.Add(id, 0.0);
    for (const auto& e : s.entries()) {
      if (e.id < 50) {
        ++low;
      } else {
        ++high;
      }
    }
  }
  double ratio = static_cast<double>(low) / high;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(SampleSynopsisTest, QuantileEstimation) {
  SampleSynopsis s(200, 3);
  for (uint64_t id = 0; id < 2000; ++id) {
    s.Add(id, static_cast<double>(id % 1000));
  }
  // Median of values 0..999 repeated: ~500; sample of 200 -> generous band.
  EXPECT_NEAR(s.EstimateQuantile(0.5), 500.0, 120.0);
  EXPECT_NEAR(s.EstimateMean(), 499.5, 60.0);
}

TEST(SampleSynopsisTest, CentralMoment) {
  SampleSynopsis s(500, 4);
  Rng rng(83);
  for (uint64_t id = 0; id < 5000; ++id) s.Add(id, rng.Normal(0.0, 2.0));
  // Variance ~ 4.
  EXPECT_NEAR(s.EstimateCentralMoment(2), 4.0, 1.0);
}

}  // namespace
}  // namespace td
