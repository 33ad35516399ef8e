#include "videnc/predict.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>

namespace tle::videnc {

namespace {

/// Neighbour sample above the block, or 128 when unavailable (frame edge or
/// slice boundary).
std::uint8_t top_sample(const Plane& recon, int x, int y0, int min_y) {
  if (y0 <= min_y || x < 0 || x >= recon.width()) return 128;
  return recon.at(x, y0 - 1);
}

std::uint8_t left_sample(const Plane& recon, int x0, int y) {
  if (x0 == 0 || y < 0 || y >= recon.height()) return 128;
  return recon.at(x0 - 1, y);
}

/// Copy the cols x rows region at (x0, y0) of `plane` into `out` (rows `cols`
/// bytes apart), clamping coordinates to the plane's edges exactly as
/// Plane::at_clamped does. Rows that lie inside the plane are one memcpy.
void copy_clamped(const Plane& plane, std::int64_t x0, std::int64_t y0,
                  int cols, int rows, std::uint8_t* out) {
  const int w = plane.width(), h = plane.height();
  // An origin a whole region or more past an edge reads only that edge, so
  // fold it in first: a decoded motion vector can be any int, and x + cols
  // must not overflow.
  const int x = static_cast<int>(std::clamp<std::int64_t>(x0, -cols, w - 1));
  const int y = static_cast<int>(std::clamp<std::int64_t>(y0, -rows, h - 1));
  const bool inside = x >= 0 && x + cols <= w;
  for (int j = 0; j < rows; ++j, out += cols) {
    const std::uint8_t* row = plane.row(std::clamp(y + j, 0, h - 1));
    if (inside) {
      std::memcpy(out, row + x, static_cast<std::size_t>(cols));
    } else {
      for (int i = 0; i < cols; ++i) out[i] = row[std::clamp(x + i, 0, w - 1)];
    }
  }
}

/// SAD of the packed block `src` against the 8x8 block at `ref`, whose rows
/// lie `stride` bytes apart. The compiler vectorizes each 8-byte row on its
/// own; unrolling the rows as well lets their loads and sums overlap (with
/// GCC 12 on x86-64 that halved the cost of a motion search).
std::uint32_t sad_8x8(const std::uint8_t* src, const std::uint8_t* ref,
                      std::ptrdiff_t stride) {
  std::uint32_t sad = 0;
#pragma GCC unroll 8
  for (int y = 0; y < kBlock; ++y, src += kBlock, ref += stride) {
    for (int x = 0; x < kBlock; ++x) {
      const int d = static_cast<int>(src[x]) - ref[x];
      sad += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
  }
  return sad;
}

}  // namespace

void intra_predict(const Plane& recon, int x0, int y0, IntraMode mode,
                   std::uint8_t pred[kBlockSize], int min_y, int max_y) {
  // The neighbours, gathered once: top[kBlock] is the top-right sample and
  // left[kBlock] the bottom-left one, which is unavailable past the slice.
  std::uint8_t top[kBlock + 1], left[kBlock + 1];
  for (int i = 0; i <= kBlock; ++i) {
    top[i] = top_sample(recon, x0 + i, y0, min_y);
    left[i] = left_sample(recon, x0, y0 + i);
  }
  if (y0 + kBlock >= max_y) left[kBlock] = 128;

  switch (mode) {
    case IntraMode::Dc: {
      int sum = 0, n = 0;
      if (y0 > min_y) {
        for (int i = 0; i < kBlock; ++i) sum += top[i];
        n += kBlock;
      }
      if (x0 > 0) {
        for (int i = 0; i < kBlock; ++i) sum += left[i];
        n += kBlock;
      }
      const std::uint8_t dc =
          n ? static_cast<std::uint8_t>((sum + n / 2) / n) : 128;
      std::fill(pred, pred + kBlockSize, dc);
      break;
    }
    case IntraMode::Horizontal:
      for (int y = 0; y < kBlock; ++y)
        std::fill(pred + y * kBlock, pred + (y + 1) * kBlock, left[y]);
      break;
    case IntraMode::Vertical:
      for (int y = 0; y < kBlock; ++y)
        std::copy(top, top + kBlock, pred + y * kBlock);
      break;
    case IntraMode::Planar:
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          const int h = (kBlock - 1 - x) * left[y] + (x + 1) * top[kBlock];
          const int v = (kBlock - 1 - y) * top[x] + (y + 1) * left[kBlock];
          pred[y * kBlock + x] =
              static_cast<std::uint8_t>((h + v + kBlock) / (2 * kBlock));
        }
      }
      break;
  }
}

void motion_compensate(const Plane& ref, int x0, int y0, int mvx, int mvy,
                       std::uint8_t pred[kBlockSize]) {
  copy_clamped(ref, std::int64_t{x0} + mvx, std::int64_t{y0} + mvy, kBlock,
               kBlock, pred);
}

std::uint32_t block_sad(const std::uint8_t src[kBlockSize],
                        const std::uint8_t pred[kBlockSize]) {
  return sad_8x8(src, pred, kBlock);
}

MotionResult motion_search(const std::uint8_t src[kBlockSize], const Plane& ref,
                           int x0, int y0, int predx, int predy, int range) {
  MotionResult best;
  if (range < 0) return best;
  // The window holds every candidate: candidate (dx, dy) starts at window
  // offset (dx + range, dy + range).
  const int side = 2 * range + kBlock;
  const int wx = x0 + predx - range, wy = y0 + predy - range;
  const std::uint8_t* window;
  std::ptrdiff_t stride;
  std::unique_ptr<std::uint8_t[]> clamped;
  if (wx >= 0 && wy >= 0 && wx + side <= ref.width() &&
      wy + side <= ref.height()) {
    window = ref.row(wy) + wx;
    stride = ref.width();
  } else {
    clamped = std::make_unique_for_overwrite<std::uint8_t[]>(
        static_cast<std::size_t>(side) * side);
    copy_clamped(ref, wx, wy, side, side, clamped.get());
    window = clamped.get();
    stride = side;
  }
  for (int dy = -range; dy <= range; ++dy) {
    const std::uint8_t* row = window + (dy + range) * stride + range;
    for (int dx = -range; dx <= range; ++dx) {
      const std::uint32_t sad = sad_8x8(src, row + dx, stride);
      // Deterministic tie-break: strictly better wins; raster order decides.
      if (sad < best.sad) {
        best.sad = sad;
        best.mvx = predx + dx;
        best.mvy = predy + dy;
      }
    }
  }
  return best;
}

}  // namespace tle::videnc
