// Canonical Huffman coding for the ZRLE symbol alphabet.
#pragma once

#include <cstdint>
#include <vector>

#include "bzip/bitio.hpp"

namespace tle::bzip {

inline constexpr unsigned kMaxCodeLen = 20;

/// Compute depth-limited code lengths for `freqs` (zero-frequency symbols
/// get length 0). At least one symbol must have nonzero frequency.
std::vector<std::uint8_t> huffman_code_lengths(
    const std::vector<std::uint64_t>& freqs);

/// Canonical code assignment from lengths (codes[i] valid iff lengths[i]>0).
std::vector<std::uint32_t> canonical_codes(
    const std::vector<std::uint8_t>& lengths);

/// Streaming canonical decoder.
class HuffmanDecoder {
 public:
  /// Codes of up to this many bits decode with one table lookup.
  static constexpr unsigned kTableBits = 11;

  /// Build from code lengths (at most 4096 symbols). Returns false if the
  /// lengths are not a valid (complete or over-complete-free) prefix code.
  bool init(const std::vector<std::uint8_t>& lengths);

  /// Decode one symbol; -1 on error/underrun.
  int decode(BitReader& in) const {
    const std::uint16_t e = table_[in.peek(kTableBits)];
    const unsigned len = e & 0xF;
    if (len != 0 && len <= in.bits_left()) {
      in.skip(len);
      return e >> 4;
    }
    return decode_walk(in);
  }

  /// Decode one symbol bit by bit along the canonical code: what decode()
  /// does for longer codes, for bits no code starts with, and where the
  /// data ends before the code does. -1 on error/underrun.
  int decode_walk(BitReader& in) const;

 private:
  // first_code_[l]: canonical first code of length l;
  // offset_[l]: index into sorted_symbols_ of that first code.
  std::uint32_t first_code_[kMaxCodeLen + 2] = {};
  std::uint32_t count_[kMaxCodeLen + 2] = {};
  std::uint32_t offset_[kMaxCodeLen + 2] = {};
  std::vector<std::uint16_t> sorted_symbols_;
  // table_[b]: symbol << 4 | length of the code of at most kTableBits bits
  // that the kTableBits-bit window b starts with, or 0 if none does.
  std::uint16_t table_[1u << kTableBits] = {};
};

}  // namespace tle::bzip
