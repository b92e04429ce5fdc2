#include "sketch/rle.h"

#include <algorithm>
#include <bit>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

namespace {

constexpr int kPrefixBits = 5;  // prefix length in [0, 31] (32 is re-coded)
constexpr int kFringeBits = 6;  // fringe length in [0, 32]

// Splits a 32-bit bitmap into (ones-prefix length, fringe bits, fringe len).
// The fringe spans from the first zero to the last one, inclusive; all bits
// above the fringe are zero.
struct SplitBitmap {
  int prefix;   // leading run of ones
  int fringe;   // number of fringe bits
  uint32_t fringe_bits;
};

SplitBitmap Split(uint32_t bm) {
  SplitBitmap s;
  s.prefix = std::countr_one(bm);
  if (s.prefix >= 32) {
    // All-ones bitmap: re-code as a 31-bit prefix plus a single fringe one so
    // the prefix field stays within 5 bits.
    s.prefix = 31;
    s.fringe = 1;
    s.fringe_bits = 1;
    return s;
  }
  uint32_t rest = bm >> s.prefix;  // bit 0 of rest is the first zero
  int top = rest == 0 ? -1 : 31 - std::countl_zero(rest);
  s.fringe = top + 1;  // 0 when there are no ones above the prefix
  s.fringe_bits = rest & (s.fringe >= 32 ? ~0u : ((1u << s.fringe) - 1));
  return s;
}

}  // namespace

void BitWriter::WriteBit(bool bit) {
  size_t byte = bit_count_ / 8;
  if (byte >= bytes_.size()) bytes_.push_back(0);
  if (bit) bytes_[byte] |= static_cast<uint8_t>(1u << (bit_count_ % 8));
  ++bit_count_;
}

void BitWriter::WriteBits(uint64_t value, int nbits) {
  TD_CHECK_GE(nbits, 0);
  TD_CHECK_LE(nbits, 64);
  // Byte-at-a-time: OR up to 8 bits into the current partial byte per step.
  while (nbits > 0) {
    size_t byte = bit_count_ / 8;
    int off = static_cast<int>(bit_count_ % 8);
    if (byte >= bytes_.size()) bytes_.push_back(0);
    int take = 8 - off;
    if (take > nbits) take = nbits;
    bytes_[byte] |= static_cast<uint8_t>((value & ((1u << take) - 1)) << off);
    value >>= take;
    nbits -= take;
    bit_count_ += static_cast<size_t>(take);
  }
}

void BitWriter::WriteGamma(uint64_t n) {
  TD_CHECK_GE(n, 1u);
  int len = 63 - std::countl_zero(n);  // floor(log2 n)
  // len zeros, then the len+1 bits of n MSB-first. The stream is LSB-first,
  // so MSB-first emission is WriteBits of the bit-reversed value.
  WriteBits(0, len);
  uint64_t rev = 0;
  for (int i = 0; i <= len; ++i) rev |= ((n >> i) & 1) << (len - i);
  WriteBits(rev, len + 1);
}

bool BitReader::ReadBit() {
  TD_CHECK(!AtEnd());
  bool bit = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1;
  ++pos_;
  return bit;
}

uint64_t BitReader::ReadBits(int nbits) {
  TD_CHECK_GE(nbits, 0);
  TD_CHECK_LE(nbits, 64);
  TD_CHECK(pos_ + static_cast<size_t>(nbits) <= bytes_.size() * 8);
  uint64_t v = 0;
  int got = 0;
  while (got < nbits) {
    size_t byte = pos_ / 8;
    int off = static_cast<int>(pos_ % 8);
    int take = 8 - off;
    if (take > nbits - got) take = nbits - got;
    uint64_t chunk = (static_cast<uint64_t>(bytes_[byte]) >> off) &
                     ((1u << take) - 1);
    v |= chunk << got;
    got += take;
    pos_ += static_cast<size_t>(take);
  }
  return v;
}

uint64_t BitReader::ReadGamma() {
  int len = 0;
  while (!ReadBit()) ++len;
  uint64_t n = 1;
  for (int i = 0; i < len; ++i) n = (n << 1) | (ReadBit() ? 1 : 0);
  return n;
}

bool BitReader::TryReadBits(int nbits, uint64_t* out) {
  if (pos_ + static_cast<size_t>(nbits) > bytes_.size() * 8) return false;
  *out = ReadBits(nbits);
  return true;
}

bool BitReader::TryReadBit(bool* out) {
  if (AtEnd()) return false;
  *out = ReadBit();
  return true;
}

bool BitReader::TryReadGamma(uint64_t* out) {
  int len = 0;
  bool bit;
  for (;;) {
    if (!TryReadBit(&bit)) return false;
    if (bit) break;
    // A 64-bit value has at most 63 leading zeros in its gamma code; more
    // means the value would wrap modulo 2^64 -- malformed, not decodable.
    if (++len > 63) return false;
  }
  uint64_t n = 1;
  for (int i = 0; i < len; ++i) {
    if (!TryReadBit(&bit)) return false;
    n = (n << 1) | (bit ? 1 : 0);
  }
  *out = n;
  return true;
}

std::vector<uint8_t> EncodeBitmapsRle(const std::vector<uint32_t>& bitmaps) {
  BitWriter w;
  for (uint32_t bm : bitmaps) {
    SplitBitmap s = Split(bm);
    w.WriteBits(static_cast<uint64_t>(s.prefix), kPrefixBits);
    w.WriteBits(static_cast<uint64_t>(s.fringe), kFringeBits);
    w.WriteBits(s.fringe_bits, s.fringe);
  }
  return w.bytes();
}

StatusOr<std::vector<uint32_t>> DecodeBitmapsRle(
    const std::vector<uint8_t>& bytes, size_t count) {
  BitReader r(bytes);
  std::vector<uint32_t> out;
  out.reserve(std::min(count, bytes.size() * 8 / (kPrefixBits + kFringeBits)));
  for (size_t i = 0; i < count; ++i) {
    uint64_t prefix, fringe, fringe_bits;
    if (!r.TryReadBits(kPrefixBits, &prefix) ||
        !r.TryReadBits(kFringeBits, &fringe)) {
      return Status::InvalidArgument("bitmap RLE: stream ends mid-header");
    }
    if (fringe > 32) {
      return Status::OutOfRange("bitmap RLE: fringe longer than 32 bits");
    }
    if (prefix + fringe > 32) {
      return Status::OutOfRange("bitmap RLE: prefix plus fringe overruns "
                                "the 32-bit bitmap");
    }
    if (!r.TryReadBits(static_cast<int>(fringe), &fringe_bits)) {
      return Status::InvalidArgument("bitmap RLE: stream ends mid-fringe");
    }
    const uint64_t ones = (1ULL << prefix) - 1;
    out.push_back(static_cast<uint32_t>(ones | (fringe_bits << prefix)));
  }
  return out;
}

size_t RleEncodedBytes(const std::vector<uint32_t>& bitmaps) {
  size_t bits = 0;
  for (uint32_t bm : bitmaps) {
    SplitBitmap s = Split(bm);
    bits += kPrefixBits + kFringeBits + static_cast<size_t>(s.fringe);
  }
  return (bits + 7) / 8;
}

namespace {

// The bank codec's hot core. Stream index pos*count + j holds bit `pos` of
// bitmaps[j]; that is, bank row `pos` is the `count` bits of position `pos`
// across the bitmaps. An FM bank is all-ones rows, a short mixed fringe and
// all-zero rows, so only the fringe is ever materialized: one AND/OR pass
// finds the solid rows, whose runs are closed-form, and the fringe rows are
// built eight positions at a time by 8x8 bit-matrix transposes.

// Bitmap chunks (64 bitmaps each) whose fringe tiles are built together. A
// bank up to kTileChunks*64 bitmaps builds every tile once; a wider one
// rebuilds its window of tiles per fringe row to stay in stream order.
constexpr size_t kTileChunks = 8;

// Transposes an 8x8 bit matrix held one row per byte: bit c of byte r
// moves to bit r of byte c (Hacker's Delight, 7-3).
inline uint64_t Transpose8x8(uint64_t x) {
  uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

// Byte k of the result is bits [shift, shift + 8) of bm[k], for k < n <= 8.
inline uint64_t GatherBlock(const uint32_t* bm, size_t n, int shift) {
  uint64_t x = 0;
  for (size_t k = 0; k < n; ++k) {
    x |= static_cast<uint64_t>((bm[k] >> shift) & 0xFFu) << (8 * k);
  }
  return x;
}

// Fills tile[c - c0][r] with bank row shift + r over the 64 bitmaps of
// chunk c, for chunks [c0, c1) and r in [0, 8). Bitmaps past `count` read
// as zero.
void BuildTiles(const uint32_t* bitmaps, size_t count, int shift, size_t c0,
                size_t c1, uint64_t (*tile)[8]) {
  for (size_t c = c0; c < c1; ++c) {
    uint64_t* rows = tile[c - c0];
    for (int r = 0; r < 8; ++r) rows[r] = 0;
    const size_t end = std::min(count, (c + 1) * 64);
    for (size_t j = c * 64; j < end; j += 8) {
      // A constant 8 lets the compiler unroll every full block's gather.
      const size_t n = std::min<size_t>(8, end - j);
      const uint64_t gathered = n == 8 ? GatherBlock(bitmaps + j, 8, shift)
                                       : GatherBlock(bitmaps + j, n, shift);
      const uint64_t block = Transpose8x8(gathered);
      const int col = static_cast<int>(j - c * 64);
      for (int r = 0; r < 8; ++r) rows[r] |= ((block >> (8 * r)) & 0xFF) << col;
    }
  }
}

/// Lists the maximal runs of equal bits of the position-major stream of a
/// non-empty bank, calling fn(run_length) for each in stream order. The
/// first run's bit value is bitmaps[0] & 1 and values alternate from there.
template <typename Fn>
void ForEachRun(const uint32_t* bitmaps, size_t count, Fn&& fn) {
  uint32_t all = ~0u, any = 0;
  for (size_t j = 0; j < count; ++j) {
    all &= bitmaps[j];
    any |= bitmaps[j];
  }
  const int lo = std::countr_one(all);        // rows [0, lo) are all ones
  const int hi = 32 - std::countl_zero(any);  // rows [hi, 32) are all zeros

  // The open run: its bit value and length so far.
  uint64_t bit = bitmaps[0] & 1;
  uint64_t run = static_cast<uint64_t>(lo) * count;
  // Appends the low n bits of x (n in [1, 64], higher bits zero). Bit i of
  // the transition mask is set where stream bit i differs from the one
  // before it, so each set bit closes the open run.
  auto append = [&](uint64_t x, int n) {
    uint64_t t = (x ^ ((x << 1) | bit)) & (~0ULL >> (64 - n));
    int last = 0;
    while (t != 0) {
      const int i = std::countr_zero(t);
      t &= t - 1;
      fn(run + static_cast<uint64_t>(i - last));
      run = 0;
      last = i;
    }
    run += static_cast<uint64_t>(n - last);
    bit = (x >> (n - 1)) & 1;
  };

  const size_t chunks = (count + 63) / 64;
  const size_t windows = (chunks + kTileChunks - 1) / kTileChunks;
  uint64_t tile[kTileChunks][8];
  for (int base = lo; base < hi; base += 8) {
    const int rows = std::min(8, hi - base);
    for (int r = 0; r < rows; ++r) {
      for (size_t w = 0; w < windows; ++w) {
        const size_t c0 = w * kTileChunks;
        const size_t c1 = std::min(chunks, c0 + kTileChunks);
        if (r == 0 || windows > 1) {
          BuildTiles(bitmaps, count, base, c0, c1, tile);
        }
        for (size_t c = c0; c < c1; ++c) {
          append(tile[c - c0][r],
                 static_cast<int>(std::min<size_t>(64, count - c * 64)));
        }
      }
    }
  }

  if (hi < 32) {
    // The all-zero rows: one run, merged with a trailing zero run.
    if (bit != 0) {
      fn(run);
      run = 0;
    }
    run += static_cast<uint64_t>(32 - hi) * count;
  }
  fn(run);
}

inline size_t GammaBits(uint64_t n) {
  int len = 63 - std::countl_zero(n);
  return static_cast<size_t>(2 * len + 1);
}

}  // namespace

std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps) {
  TD_PROFILE_SCOPE(obs::Phase::kRleEncode);
  BitWriter w;
  if (bitmaps.empty()) return w.bytes();
  w.WriteBit(bitmaps[0] & 1);
  ForEachRun(bitmaps.data(), bitmaps.size(),
             [&w](uint64_t run) { w.WriteGamma(run); });
  return w.bytes();
}

StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count) {
  std::vector<uint32_t> bitmaps(count, 0u);
  if (count == 0) return bitmaps;
  BitReader r(bytes);
  const size_t total = count * 32;
  bool current;
  if (!r.TryReadBit(&current)) {
    return Status::InvalidArgument("bank RLE: empty stream");
  }
  // Stream index i is bit i / count of bitmaps[i % count], so a run of
  // ones sets one position across a range of bitmaps per row it spans.
  size_t i = 0;
  while (i < total) {
    uint64_t run;
    if (!r.TryReadGamma(&run)) {
      return Status::InvalidArgument("bank RLE: stream ends mid-run");
    }
    if (run > total - i) {
      return Status::OutOfRange("bank RLE: run overruns the bank");
    }
    if (current) {
      size_t pos = i / count;
      size_t j = i % count;
      for (uint64_t left = run; left > 0; ++pos, j = 0) {
        const size_t end =
            static_cast<size_t>(std::min<uint64_t>(count, j + left));
        for (size_t k = j; k < end; ++k) bitmaps[k] |= 1u << pos;
        left -= end - j;
      }
    }
    i += static_cast<size_t>(run);
    current = !current;
  }
  return bitmaps;
}

size_t BankRleBytes(const std::vector<uint32_t>& bitmaps) {
  return BankRleBytes(bitmaps.data(), bitmaps.size());
}

size_t BankRleBytes(const uint32_t* bitmaps, size_t count) {
  if (count == 0) return 0;
  size_t bits = 1;
  ForEachRun(bitmaps, count, [&bits](uint64_t run) { bits += GammaBits(run); });
  return (bits + 7) / 8;
}

}  // namespace td
