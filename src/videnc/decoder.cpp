#include "videnc/decoder.hpp"

#include <algorithm>

#include "bzip/bitio.hpp"
#include "videnc/predict.hpp"
#include "videnc/transform.hpp"

namespace tle::videnc {

namespace {

constexpr int kCtu = 16;

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool take(std::size_t n, const std::uint8_t** out) {
    if (pos + n > size) return false;
    *out = data + pos;
    pos += n;
    return true;
  }
  bool byte(std::uint8_t* out) {
    const std::uint8_t* p;
    if (!take(1, &p)) return false;
    *out = *p;
    return true;
  }
  bool done() const { return pos == size; }
};

/// Decode one 8x8 block into `recon` at (x0, y0).
bool decode_block(bzip::BitReader& br, Plane& recon, const Plane* ref,
                  bool frame_is_inter, int x0, int y0, std::int32_t step,
                  int min_y, int max_y) {
  std::uint8_t pred[kBlockSize];
  std::uint64_t is_inter = 0;
  if (!br.get(1, &is_inter)) return false;
  if (is_inter) {
    if (!frame_is_inter || !ref) return false;  // inter block in an I-frame
    std::int32_t mvx, mvy;
    if (!get_se(br, &mvx) || !get_se(br, &mvy)) return false;
    motion_compensate(*ref, x0, y0, mvx, mvy, pred);
  } else {
    std::uint64_t mode = 0;
    if (!br.get(2, &mode)) return false;
    intra_predict(recon, x0, y0, static_cast<IntraMode>(mode), pred, min_y,
                  max_y);
  }

  // Reject a level that would dequantize past kMaxCoeff, before dequantize
  // multiplies it by the step: no encode produces one, and idct8x8's 32-bit
  // sums hold only up to kMaxCoeff.
  std::int32_t coeffs[kBlockSize];
  if (!entropy_decode_block(br, coeffs, kMaxCoeff / step)) return false;
  dequantize(coeffs, step);
  std::int16_t rec[kBlockSize];
  idct8x8(coeffs, rec);
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x) {
      if (x0 + x >= recon.width() || y0 + y >= recon.height()) continue;
      const int v = pred[y * kBlock + x] + rec[y * kBlock + x];
      recon.set(x0 + x, y0 + y,
                static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v)));
    }
  return true;
}

}  // namespace

DecodedVideo decode_video(const std::vector<std::uint8_t>& bitstream,
                          int width, int height) {
  DecodedVideo out;
  if (width <= 0 || height <= 0) {
    out.error = "bad dimensions";
    return out;
  }
  const int cols = (width + kCtu - 1) / kCtu;
  const int rows = (height + kCtu - 1) / kCtu;

  Cursor cur{bitstream.data(), bitstream.size()};
  while (!cur.done()) {
    // Re-take the reference pointer each frame: push_back below may have
    // reallocated the vector.
    const Plane* ref = out.frames.empty() ? nullptr : &out.frames.back();
    std::uint8_t number, qp, intra_flag, slices;
    if (!cur.byte(&number) || !cur.byte(&qp) || !cur.byte(&intra_flag) ||
        !cur.byte(&slices)) {
      out.error = "truncated frame header";
      return out;
    }
    if (slices == 0) {
      out.error = "bad slice count";
      return out;
    }
    const bool frame_is_inter = intra_flag == 0 && ref != nullptr;
    // Balanced slice partition — must mirror the encoder's.
    auto slice_first = [&](int r) {
      for (int s = slices - 1; s > 0; --s)
        if (r >= s * rows / slices) return s * rows / slices;
      return 0;
    };
    auto slice_end = [&](int r) {
      for (int s = slices - 1; s > 0; --s)
        if (r >= s * rows / slices) return (s + 1) * rows / slices;
      return rows / slices;
    };
    const std::int32_t step = quant_step(qp);
    Plane recon(width, height);

    for (int r = 0; r < rows; ++r) {
      std::uint8_t b0, b1, b2;
      if (!cur.byte(&b0) || !cur.byte(&b1) || !cur.byte(&b2)) {
        out.error = "truncated row header";
        return out;
      }
      const std::size_t row_len = static_cast<std::size_t>(b0) |
                                  (static_cast<std::size_t>(b1) << 8) |
                                  (static_cast<std::size_t>(b2) << 16);
      const std::uint8_t* row_bytes;
      if (!cur.take(row_len, &row_bytes)) {
        out.error = "truncated row payload";
        return out;
      }
      bzip::BitReader br(row_bytes, row_len);
      const int y_top = r * kCtu;
      const int y_bot = std::min((r + 1) * kCtu, height);
      const int min_y = slice_first(r) * kCtu;
      const int max_y = std::min(slice_end(r) * kCtu, height);
      for (int c = 0; c < cols; ++c) {
        const int x_left = c * kCtu;
        const int x_right = std::min((c + 1) * kCtu, width);
        for (int y0 = y_top; y0 < y_bot; y0 += kBlock)
          for (int x0 = x_left; x0 < x_right; x0 += kBlock)
            if (!decode_block(br, recon, ref, frame_is_inter, x0, y0, step,
                              min_y, max_y)) {
              out.error = "malformed block stream (frame " +
                          std::to_string(number) + ")";
              return out;
            }
      }
    }
    out.frames.push_back(std::move(recon));
  }
  out.ok = true;
  return out;
}

}  // namespace tle::videnc
