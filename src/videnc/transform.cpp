#include "videnc/transform.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace tle::videnc {

namespace {

constexpr int kShift = 13;  // fixed-point scale of the cosine matrix

/// Fixed-point orthonormal DCT-II matrix, built once. Basis u is even or odd
/// about the middle, c[u][7 - y] = (-1)^u c[u][y], and the even bases u = 2k
/// are again about their middle, c[2k][3 - y] = (-1)^k c[2k][y]. Both hold
/// exactly for the rounded entries, which is what the passes below fold on.
struct CosTable {
  std::int32_t c[kBlock][kBlock];
  CosTable() {
    for (int u = 0; u < kBlock; ++u) {
      const double a = u == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
      for (int y = 0; y < kBlock; ++y)
        c[u][y] = static_cast<std::int32_t>(std::lround(
            a * std::cos((2 * y + 1) * u * M_PI / (2 * kBlock)) * (1 << kShift)));
    }
  }
};
const CosTable kCos;

std::int32_t descale(std::int32_t v) {
  return (v + (1 << (kShift - 1))) >> kShift;
}

/// One forward 8-point pass over s[0], s[kIn], ..., s[7 * kIn]:
/// d[u * kOut] = descale(sum over y of c[u][y] * s[y * kIn]), folded even/odd
/// as in HEVC's partialButterfly8. That is 24 multiplies instead of 64, and
/// the same integer sums.
template <int kIn, int kOut, typename T>
void fdct8(const T* s, std::int32_t* d) {
  const auto& c = kCos.c;
  std::int32_t e[4], o[4];
  for (int k = 0; k < 4; ++k) {
    e[k] = s[k * kIn] + s[(7 - k) * kIn];
    o[k] = s[k * kIn] - s[(7 - k) * kIn];
  }
  const std::int32_t ee0 = e[0] + e[3], ee1 = e[1] + e[2];
  const std::int32_t eo0 = e[0] - e[3], eo1 = e[1] - e[2];
  d[0] = descale(c[0][0] * ee0 + c[0][1] * ee1);
  d[4 * kOut] = descale(c[4][0] * ee0 + c[4][1] * ee1);
  d[2 * kOut] = descale(c[2][0] * eo0 + c[2][1] * eo1);
  d[6 * kOut] = descale(c[6][0] * eo0 + c[6][1] * eo1);
  for (int u = 1; u < kBlock; u += 2)
    d[u * kOut] = descale(c[u][0] * o[0] + c[u][1] * o[1] + c[u][2] * o[2] +
                          c[u][3] * o[3]);
}

/// One inverse 8-point pass: d[y * kOut] = descale(sum over u of
/// c[u][y] * s[u * kIn]), with the same folds run backwards.
template <int kIn, int kOut>
void idct8(const std::int32_t* s, std::int32_t* d) {
  const auto& c = kCos.c;
  const std::int32_t ee0 = c[0][0] * s[0] + c[4][0] * s[4 * kIn];
  const std::int32_t ee1 = c[0][1] * s[0] + c[4][1] * s[4 * kIn];
  const std::int32_t eo0 = c[2][0] * s[2 * kIn] + c[6][0] * s[6 * kIn];
  const std::int32_t eo1 = c[2][1] * s[2 * kIn] + c[6][1] * s[6 * kIn];
  const std::int32_t e[4] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
  for (int y = 0; y < 4; ++y) {
    const std::int32_t o = c[1][y] * s[kIn] + c[3][y] * s[3 * kIn] +
                           c[5][y] * s[5 * kIn] + c[7][y] * s[7 * kIn];
    d[y * kOut] = descale(e[y] + o);
    d[(7 - y) * kOut] = descale(e[y] - o);
  }
}

}  // namespace

// --- Exp-Golomb ---------------------------------------------------------------

std::size_t put_ue(bzip::BitWriter& bw, std::uint32_t v) {
  assert(v != UINT32_MAX);
  const std::uint64_t x = std::uint64_t{v} + 1;
  const unsigned bits = static_cast<unsigned>(std::bit_width(x)) - 1;
  bw.put(0, bits);
  bw.put(x, bits + 1);
  return 2 * bits + 1;
}

bool get_ue(bzip::BitReader& br, std::uint32_t* v) {
  int zeros = 0;
  for (;;) {
    const int b = br.get_bit();
    if (b < 0) return false;
    if (b) break;
    if (++zeros > 31) return false;
  }
  std::uint64_t rest = 0;
  if (zeros > 0 && !br.get(static_cast<unsigned>(zeros), &rest)) return false;
  *v = static_cast<std::uint32_t>(((1ULL << zeros) | rest) - 1);
  return true;
}

std::size_t put_se(bzip::BitWriter& bw, std::int32_t v) {
  assert(v != INT32_MIN);
  // Zigzag map: 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3, -2 -> 4, ...
  const std::uint32_t u =
      v > 0 ? 2u * static_cast<std::uint32_t>(v) - 1
            : 2u * static_cast<std::uint32_t>(-v);
  return put_ue(bw, u);
}

bool get_se(bzip::BitReader& br, std::int32_t* v) {
  std::uint32_t u;
  if (!get_ue(br, &u)) return false;
  *v = (u & 1) ? static_cast<std::int32_t>((u + 1) / 2)
               : -static_cast<std::int32_t>(u / 2);
  return true;
}

void fdct8x8(const std::int16_t in[kBlockSize], std::int32_t out[kBlockSize]) {
  std::int32_t tmp[kBlockSize];
  for (int x = 0; x < kBlock; ++x) fdct8<kBlock, kBlock>(in + x, tmp + x);
  for (int u = 0; u < kBlock; ++u)
    fdct8<1, 1>(tmp + u * kBlock, out + u * kBlock);
}

void idct8x8(const std::int32_t in[kBlockSize], std::int16_t out[kBlockSize]) {
  std::int32_t tmp[kBlockSize];
  for (int v = 0; v < kBlock; ++v) idct8<kBlock, kBlock>(in + v, tmp + v);
  for (int y = 0; y < kBlock; ++y) {
    std::int32_t row[kBlock];
    idct8<1, 1>(tmp + y * kBlock, row);
    for (int x = 0; x < kBlock; ++x)
      out[y * kBlock + x] =
          static_cast<std::int16_t>(std::clamp(row[x], -32768, 32767));
  }
}

std::int32_t quant_step(int qp) {
  static const int base[6] = {10, 11, 13, 14, 16, 18};
  qp = std::clamp(qp, 0, 51);
  return std::max(1, (base[qp % 6] << (qp / 6)) / 4);
}

void quantize(std::int32_t coeffs[kBlockSize], std::int32_t step) {
  for (int i = 0; i < kBlockSize; ++i) {
    const std::int32_t c = coeffs[i];
    const std::int32_t q = (std::abs(c) + step / 2) / step;
    coeffs[i] = c < 0 ? -q : q;
  }
}

void dequantize(std::int32_t coeffs[kBlockSize], std::int32_t step) {
  for (int i = 0; i < kBlockSize; ++i) coeffs[i] *= step;
}

const std::uint8_t kZigzag[kBlockSize] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

std::size_t entropy_encode_block(const std::int32_t coeffs[kBlockSize],
                                 bzip::BitWriter& bw) {
  std::size_t bits = 0;
  std::uint32_t run = 0;
  for (int i = 0; i < kBlockSize; ++i) {
    const std::int32_t c = coeffs[kZigzag[i]];
    if (c == 0) {
      ++run;
      continue;
    }
    bits += put_ue(bw, run);
    const std::uint32_t mag = static_cast<std::uint32_t>(std::abs(c)) - 1;
    bits += put_ue(bw, mag);
    bw.put(c < 0 ? 1 : 0, 1);
    bits += 1;
    run = 0;
  }
  bits += put_ue(bw, kBlockSize);  // EOB sentinel (legit runs are <= 63)
  return bits;
}

bool entropy_decode_block(bzip::BitReader& br, std::int32_t coeffs[kBlockSize],
                          std::int32_t max_level) {
  std::fill(coeffs, coeffs + kBlockSize, 0);
  int pos = 0;
  for (;;) {
    std::uint32_t run;
    if (!get_ue(br, &run)) return false;
    if (run == kBlockSize) return true;  // EOB
    if (run >= static_cast<std::uint32_t>(kBlockSize - pos)) return false;
    pos += static_cast<int>(run);
    std::uint32_t mag;
    if (!get_ue(br, &mag)) return false;
    if (std::int64_t{mag} + 1 > max_level) return false;
    const int sign = br.get_bit();
    if (sign < 0) return false;
    const std::int32_t level = static_cast<std::int32_t>(mag) + 1;
    coeffs[kZigzag[pos]] = sign ? -level : level;
    ++pos;
  }
}

}  // namespace tle::videnc
