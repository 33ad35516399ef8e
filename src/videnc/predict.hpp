// Intra prediction (DC / horizontal / vertical / planar) from reconstructed
// neighbours, SAD cost, and full-search motion estimation against the
// previous reconstructed frame.
//
// These are the kernels x265 writes in SIMD and the paper had to mark
// transaction_pure (§VI-e). Here they are plain loops over packed 8x8 blocks
// and contiguous reference rows, which the compiler vectorizes on its own:
// the encoder loads each source block once, and motion_search reads its
// reference window once.
#pragma once

#include <cstdint>

#include "videnc/frame.hpp"
#include "videnc/transform.hpp"

namespace tle::videnc {

enum class IntraMode : std::uint8_t { Dc = 0, Horizontal, Vertical, Planar };
inline constexpr int kIntraModes = 4;

/// Predict the 8x8 block at (x0, y0) from `recon`'s already-reconstructed
/// top/left neighbours. Out-of-frame neighbours read as 128 (DC default).
/// `min_y`/`max_y` bound the enclosing slice's pixel rows: samples outside
/// [min_y, max_y) belong to other (independently processed) slices and are
/// treated as unavailable — required both for slice independence and for
/// schedule-independent (deterministic) output.
void intra_predict(const Plane& recon, int x0, int y0, IntraMode mode,
                   std::uint8_t pred[kBlockSize], int min_y = 0,
                   int max_y = 1 << 28);

/// Fetch the motion-compensated 8x8 block at (x0+mvx, y0+mvy) from `ref`
/// into the packed row-major `pred`, clamping coordinates to the plane's
/// edges as Plane::at_clamped does. With a zero vector into the source
/// plane it loads the packed source block that block_sad and motion_search
/// take.
void motion_compensate(const Plane& ref, int x0, int y0, int mvx, int mvy,
                       std::uint8_t pred[kBlockSize]);

/// Sum of absolute differences between a packed source block and a
/// prediction.
std::uint32_t block_sad(const std::uint8_t src[kBlockSize],
                        const std::uint8_t pred[kBlockSize]);

struct MotionResult {
  int mvx = 0;
  int mvy = 0;
  std::uint32_t sad = ~0u;
};

/// Full search in [-range, range]² around (predx, predy) for the packed
/// source block `src` of the block at (x0, y0). Candidates are tried in
/// raster order and only a strictly lower SAD replaces the best, so ties go
/// to the first candidate. The (2·range + 8)² reference window is read in
/// place when it lies inside `ref`, else gathered once edge-clamped; either
/// way each candidate equals motion_compensate's block.
MotionResult motion_search(const std::uint8_t src[kBlockSize], const Plane& ref,
                           int x0, int y0, int predx, int predy, int range);

}  // namespace tle::videnc
