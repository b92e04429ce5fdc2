// Run-length encoding of FM bitmap banks, after Palmer et al.'s ANF tool
// [17]. The paper relies on this codec to fit 40 32-bit Sum synopses into a
// single 48-byte TinyDB message; we use it for message-size (and therefore
// energy) accounting.
//
// An FM bitmap is, with high probability, a prefix of ones, a short noisy
// "fringe", then zeros. The codec stores, per bitmap:
//   - the length of the leading run of ones   (5 bits)
//   - the length of the fringe                (5 bits)
//   - the fringe bits verbatim                (fringe-length bits)
// which compresses a typical populated bitmap to well under a byte.
//
// The bank codec (EncodeBankRle / BankRleBytes) is the message-size unit of
// every simulated epoch, so it touches only the bank's fringe. Row `pos` of
// the position-major stream is bit `pos` of every bitmap. One AND/OR pass
// over the bitmaps finds L, the rows set in every bitmap, and H, one past
// the highest row set in any; the all-ones rows below L and the all-zero
// rows from H up are one run each, sized in closed form. Only the fringe
// rows [L, H) are built, eight rows at a time from branch-free 8x8
// bit-matrix transposes (8 bitmaps x 8 positions per uint64_t), and their
// runs are listed from the set bits of the transition mask with
// countr_zero. Sizing and encoding share that one run lister, which needs
// no allocation and no static or thread_local state.
#ifndef TD_SKETCH_RLE_H_
#define TD_SKETCH_RLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace td {

/// Append-only bit stream writer (LSB-first within bytes).
class BitWriter {
 public:
  void WriteBit(bool bit);
  /// Writes the low `nbits` of `value`, LSB first. nbits in [0, 64].
  void WriteBits(uint64_t value, int nbits);
  /// Elias-gamma code for n >= 1 (floor(log2 n) zeros, then n MSB-first).
  void WriteGamma(uint64_t n);

  size_t bit_count() const { return bit_count_; }
  size_t ByteCount() const { return (bit_count_ + 7) / 8; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Reader matching BitWriter's layout.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool ReadBit();
  uint64_t ReadBits(int nbits);
  uint64_t ReadGamma();
  bool AtEnd() const { return pos_ >= bytes_.size() * 8; }

  /// Non-aborting variants for decoding untrusted input: return false
  /// instead of CHECK-failing when the stream ends mid-value.
  bool TryReadBit(bool* out);
  /// nbits in [0, 64]; on false nothing is consumed.
  bool TryReadBits(int nbits, uint64_t* out);
  bool TryReadGamma(uint64_t* out);

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

/// Encodes a bank of 32-bit FM bitmaps; lossless.
std::vector<uint8_t> EncodeBitmapsRle(const std::vector<uint32_t>& bitmaps);

/// Inverse of EncodeBitmapsRle. `count` is the number of bitmaps encoded.
/// Corrupt input is a checked error: a stream that ends mid-field returns
/// InvalidArgument; a fringe field over 32, or a prefix plus fringe that
/// overruns the 32-bit bitmap, returns OutOfRange.
StatusOr<std::vector<uint32_t>> DecodeBitmapsRle(
    const std::vector<uint8_t>& bytes, size_t count);

/// Encoded size in bytes without materializing the encoding.
size_t RleEncodedBytes(const std::vector<uint32_t>& bitmaps);

/// Bank codec: the whole bitmap bank transposed to bit-position-major order
/// and run-length encoded with Elias-gamma lengths. Because all FM bitmaps
/// in a bank fill to a similar level, the transposed stream is long runs of
/// ones (low positions), long runs of zeros (high positions), and a short
/// mixed fringe -- this is what lets a 40-bitmap Sum synopsis bank fit a
/// single 48-byte TinyDB message as the paper reports. Lossless.
std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps);

/// Inverse of EncodeBankRle; `count` is the number of bitmaps. Corrupt
/// input is a checked error, not a silent truncation: a run that overruns
/// the bank returns OutOfRange, a stream that ends mid-code returns
/// InvalidArgument.
StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count);

/// Encoded size in bytes of the bank codec.
size_t BankRleBytes(const std::vector<uint32_t>& bitmaps);

/// Span form of BankRleBytes for callers that hold a bank as a slice of a
/// larger arena (the SoA engine core keeps every node's bank in one
/// contiguous position-major array); sizing a slot must not force a copy
/// into a temporary vector. Bit-identical to the vector overload.
size_t BankRleBytes(const uint32_t* bitmaps, size_t count);

}  // namespace td

#endif  // TD_SKETCH_RLE_H_
