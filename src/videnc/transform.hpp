// 8×8 integer transform, quantization, zigzag scan, and Exp-Golomb entropy
// coding — the pixel-math substrate of the encoder. All integer arithmetic:
// encode results are bit-exact regardless of thread schedule.
//
// The transforms are the even/odd butterflies x265 runs as SSE kernels
// (HEVC's partialButterfly8), in plain 32-bit C++; in the paper those calls
// needed the transaction_pure annotation (Section VI-e). Here they run inside
// tle::tm_pure for the same reason: they touch only private data and need no
// instrumentation.
#pragma once

#include <cstdint>

#include "bzip/bitio.hpp"

namespace tle::videnc {

inline constexpr int kBlock = 8;
inline constexpr int kBlockSize = kBlock * kBlock;

/// Largest |coefficient| idct8x8 takes. An encode's dequantized coefficients
/// stay within ±2,488: the fdct of a 9-bit residual stays within ±2,040, and
/// rounding to a quantization step (896 at most) adds at most half of one.
/// The decoder rejects levels that would dequantize past this bound.
inline constexpr std::int32_t kMaxCoeff = 32767;

/// Forward 8x8 integer DCT (scaled); in/out are row-major 64-element arrays.
/// Columns first, then rows, each pass descaled: every output equals the
/// 8x8 fixed-point matrix product's. Its 32-bit sums hold for any int16
/// input, and the outputs stay within ±262,088.
void fdct8x8(const std::int16_t in[kBlockSize], std::int32_t out[kBlockSize]);

/// Inverse of fdct8x8 (including the scale compensation), in the same pass
/// order. Requires |in[i]| <= kMaxCoeff, for which its 32-bit sums hold.
void idct8x8(const std::int32_t in[kBlockSize], std::int16_t out[kBlockSize]);

/// Quantization step for a qp (H.26x-flavoured: step doubles every 6 qp).
std::int32_t quant_step(int qp);

/// Quantize/dequantize coefficient arrays in place.
void quantize(std::int32_t coeffs[kBlockSize], std::int32_t step);
void dequantize(std::int32_t coeffs[kBlockSize], std::int32_t step);

/// Zigzag scan order for 8x8 blocks.
extern const std::uint8_t kZigzag[kBlockSize];

/// Write the quantized coefficients of one block: zigzag order, zero-run +
/// signed Exp-Golomb level coding, terminated by an end-of-block run.
/// Returns the number of bits written.
std::size_t entropy_encode_block(const std::int32_t coeffs[kBlockSize],
                                 bzip::BitWriter& bw);

/// Inverse of entropy_encode_block. Returns false on malformed input, or on
/// a level whose magnitude exceeds max_level.
bool entropy_decode_block(bzip::BitReader& br, std::int32_t coeffs[kBlockSize],
                          std::int32_t max_level);

// --- Exp-Golomb primitives (shared by block and header coding) --------------

/// Unsigned Exp-Golomb code; returns bits written. v < 2^32 - 1, the range
/// get_ue reads back (its code has at most 31 leading zeros).
std::size_t put_ue(bzip::BitWriter& bw, std::uint32_t v);
bool get_ue(bzip::BitReader& br, std::uint32_t* v);

/// Signed Exp-Golomb (zigzag-mapped); returns bits written. v > INT32_MIN:
/// negating INT32_MIN overflows, and its zigzag value 2^32 has no ue code.
std::size_t put_se(bzip::BitWriter& bw, std::int32_t v);
bool get_se(bzip::BitReader& br, std::int32_t* v);

}  // namespace tle::videnc
