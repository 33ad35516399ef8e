// Tests for the videnc encoder substrate: transform/entropy unit tests,
// prediction correctness, wavefront scheduling order, encoder determinism
// across modes and thread counts, and quality sanity.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "test_support.hpp"
#include "videnc/encoder.hpp"
#include "videnc/predict.hpp"
#include "videnc/transform.hpp"
#include "util/rng.hpp"

namespace tle::videnc {
namespace {

using tle::testing::kAllModes;
using tle::testing::ModeGuard;

// ---------------------------------------------------------------------------
// Transform
// ---------------------------------------------------------------------------

TEST(Transform, DctOfFlatBlockIsDcOnly) {
  std::int16_t in[kBlockSize];
  std::fill(in, in + kBlockSize, std::int16_t{100});
  std::int32_t out[kBlockSize];
  fdct8x8(in, out);
  EXPECT_NEAR(out[0], 800, 2);  // DC = 8 * value for orthonormal DCT
  for (int i = 1; i < kBlockSize; ++i) EXPECT_LE(std::abs(out[i]), 1) << i;
}

TEST(Transform, DctIdctRoundTripIsNearLossless) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::int16_t in[kBlockSize];
    for (auto& v : in)
      v = static_cast<std::int16_t>(static_cast<int>(rng.below(511)) - 255);
    std::int32_t freq[kBlockSize];
    fdct8x8(in, freq);
    std::int16_t back[kBlockSize];
    idct8x8(freq, back);
    for (int i = 0; i < kBlockSize; ++i)
      ASSERT_NEAR(back[i], in[i], 2) << "trial " << trial << " i " << i;
  }
}

TEST(Transform, QuantStepGrowsWithQp) {
  EXPECT_GE(quant_step(0), 1);
  EXPECT_LT(quant_step(10), quant_step(22));
  EXPECT_LT(quant_step(22), quant_step(34));
  EXPECT_EQ(quant_step(22) * 4, quant_step(34)) << "doubles every 6 qp";
}

TEST(Transform, QuantizeDequantizeBoundsError) {
  Xoshiro256 rng(2);
  const std::int32_t step = quant_step(28);
  for (int trial = 0; trial < 20; ++trial) {
    std::int32_t c[kBlockSize], orig[kBlockSize];
    for (int i = 0; i < kBlockSize; ++i)
      orig[i] = c[i] = static_cast<std::int32_t>(rng.below(4000)) - 2000;
    quantize(c, step);
    dequantize(c, step);
    for (int i = 0; i < kBlockSize; ++i)
      ASSERT_LE(std::abs(c[i] - orig[i]), step / 2 + 1);
  }
}

TEST(Transform, ZigzagIsAPermutation) {
  bool seen[kBlockSize] = {};
  for (int i = 0; i < kBlockSize; ++i) {
    ASSERT_LT(kZigzag[i], kBlockSize);
    ASSERT_FALSE(seen[kZigzag[i]]) << "duplicate at " << i;
    seen[kZigzag[i]] = true;
  }
  // Low-frequency coefficients come first.
  EXPECT_EQ(kZigzag[0], 0);
  EXPECT_EQ(kZigzag[1], 1);
  EXPECT_EQ(kZigzag[2], 8);
}

TEST(Transform, EntropyRoundTripSparseAndDense) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::int32_t coeffs[kBlockSize] = {};
    const int nz = static_cast<int>(rng.below(trial % 2 ? 64 : 6));
    for (int k = 0; k < nz; ++k)
      coeffs[rng.below(kBlockSize)] =
          static_cast<std::int32_t>(rng.below(199)) - 99;
    // Note: values may be 0 — that is fine, they are just not coded.
    bzip::BitWriter bw;
    const std::size_t bits = entropy_encode_block(coeffs, bw);
    EXPECT_GT(bits, 0u);
    auto buf = bw.finish();
    bzip::BitReader br(buf.data(), buf.size());
    std::int32_t back[kBlockSize];
    ASSERT_TRUE(entropy_decode_block(br, back, kMaxCoeff)) << trial;
    for (int i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(back[i], coeffs[i]) << "trial " << trial << " i " << i;
  }
}

TEST(Transform, EntropyAllZeroBlockIsTiny) {
  std::int32_t coeffs[kBlockSize] = {};
  bzip::BitWriter bw;
  const std::size_t bits = entropy_encode_block(coeffs, bw);
  EXPECT_LE(bits, 16u) << "empty block must cost only the EOB";
}

TEST(Transform, EntropyDecodeRejectsGarbage) {
  // All-ones bitstream decodes runs of 0 forever -> position overrun.
  std::vector<std::uint8_t> junk(16, 0xFF);
  bzip::BitReader br(junk.data(), junk.size());
  std::int32_t c[kBlockSize];
  EXPECT_FALSE(entropy_decode_block(br, c, kMaxCoeff));
  // A run of 2^32 - 2 must not wrap the position below the block's start.
  bzip::BitWriter bw;
  put_ue(bw, 0xFFFFFFFEu);  // run
  put_ue(bw, 0);            // level 1
  bw.put(0, 1);             // sign
  put_ue(bw, kBlockSize);   // end of block
  const std::vector<std::uint8_t> buf = bw.finish();
  bzip::BitReader huge_run(buf.data(), buf.size());
  EXPECT_FALSE(entropy_decode_block(huge_run, c, kMaxCoeff));
}

/// fdct8x8 and idct8x8 written as the plain 8x8 fixed-point matrix product
/// with 64-bit sums: the reference the butterflies must match bit for bit.
struct MatrixDct {
  static constexpr int kShift = 13;
  std::int32_t c[kBlock][kBlock];

  MatrixDct() {
    for (int u = 0; u < kBlock; ++u) {
      const double a =
          u == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
      for (int y = 0; y < kBlock; ++y)
        c[u][y] = static_cast<std::int32_t>(
            std::lround(a * std::cos((2 * y + 1) * u * M_PI / (2 * kBlock)) *
                        (1 << kShift)));
    }
  }

  static std::int32_t descale(std::int64_t v) {
    return static_cast<std::int32_t>((v + (1 << (kShift - 1))) >> kShift);
  }

  void forward(const std::int16_t in[kBlockSize],
               std::int32_t out[kBlockSize]) const {
    std::int32_t tmp[kBlockSize];
    for (int u = 0; u < kBlock; ++u)
      for (int x = 0; x < kBlock; ++x) {
        std::int64_t s = 0;
        for (int y = 0; y < kBlock; ++y)
          s += static_cast<std::int64_t>(c[u][y]) * in[y * kBlock + x];
        tmp[u * kBlock + x] = descale(s);
      }
    for (int u = 0; u < kBlock; ++u)
      for (int v = 0; v < kBlock; ++v) {
        std::int64_t s = 0;
        for (int x = 0; x < kBlock; ++x)
          s += static_cast<std::int64_t>(c[v][x]) * tmp[u * kBlock + x];
        out[u * kBlock + v] = descale(s);
      }
  }

  void inverse(const std::int32_t in[kBlockSize],
               std::int16_t out[kBlockSize]) const {
    std::int32_t tmp[kBlockSize];
    for (int y = 0; y < kBlock; ++y)
      for (int v = 0; v < kBlock; ++v) {
        std::int64_t s = 0;
        for (int u = 0; u < kBlock; ++u)
          s += static_cast<std::int64_t>(c[u][y]) * in[u * kBlock + v];
        tmp[y * kBlock + v] = descale(s);
      }
    for (int y = 0; y < kBlock; ++y)
      for (int x = 0; x < kBlock; ++x) {
        std::int64_t s = 0;
        for (int v = 0; v < kBlock; ++v)
          s += static_cast<std::int64_t>(c[v][x]) * tmp[y * kBlock + v];
        out[y * kBlock + x] =
            static_cast<std::int16_t>(std::clamp(descale(s), -32768, 32767));
      }
  }
};

TEST(Transform, MatchesReferenceMatrixProduct) {
  const MatrixDct ref;
  Xoshiro256 rng(6);
  using Block = std::array<std::int16_t, kBlockSize>;
  std::vector<Block> blocks;
  for (int trial = 0; trial < 4000; ++trial) {  // 9-bit residuals
    Block b;
    for (auto& v : b)
      v = static_cast<std::int16_t>(static_cast<int>(rng.below(511)) - 255);
    blocks.push_back(b);
  }
  for (int v : {-32768, -255, -1, 0, 1, 255, 32767}) {  // constant blocks
    Block b;
    b.fill(static_cast<std::int16_t>(v));
    blocks.push_back(b);
  }
  for (int v : {-255, 255}) {  // checkerboards
    Block b;
    for (int i = 0; i < kBlockSize; ++i)
      b[i] = static_cast<std::int16_t>((i / kBlock + i % kBlock) % 2 ? v : -v);
    blocks.push_back(b);
  }
  // For each output (u, v), the int16 blocks that drive every product
  // c[u][y] * c[v][x] * in[y][x] to its largest, or its smallest, value.
  for (int u = 0; u < kBlock; ++u)
    for (int v = 0; v < kBlock; ++v)
      for (int sign : {1, -1}) {
        Block b;
        for (int i = 0; i < kBlockSize; ++i)
          b[i] = sign * ref.c[u][i / kBlock] * ref.c[v][i % kBlock] >= 0
                     ? std::int16_t{32767}
                     : std::int16_t{-32768};
        blocks.push_back(b);
      }

  std::size_t inverses = 0;
  auto check_inverse = [&](const std::int32_t coeffs[kBlockSize]) {
    std::int16_t got[kBlockSize], want[kBlockSize];
    idct8x8(coeffs, got);
    ref.inverse(coeffs, want);
    ++inverses;
    for (int i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(got[i], want[i]) << "idct sample " << i;
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::int32_t got[kBlockSize], want[kBlockSize];
    fdct8x8(blocks[b].data(), got);
    ref.forward(blocks[b].data(), want);
    for (int i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(got[i], want[i]) << "block " << b << " fdct coefficient " << i;
    // The idct of the block's coefficients as an encode would dequantize
    // them, wherever they stay within its range.
    for (int qp : {0, 28, 51}) {
      std::int32_t coeffs[kBlockSize];
      std::copy(want, want + kBlockSize, coeffs);
      quantize(coeffs, quant_step(qp));
      dequantize(coeffs, quant_step(qp));
      const bool in_range =
          std::all_of(coeffs, coeffs + kBlockSize,
                      [](std::int32_t c) { return std::abs(c) <= kMaxCoeff; });
      if (in_range) {
        ASSERT_NO_FATAL_FAILURE(check_inverse(coeffs))
            << "block " << b << " qp " << qp;
      }
    }
  }
  // Coefficients up to the decoder's bound: random ones, and for each
  // sample (y, x) the blocks at ±kMaxCoeff that drive it to either extreme.
  for (int trial = 0; trial < 4000; ++trial) {
    std::int32_t coeffs[kBlockSize];
    for (auto& c : coeffs)
      c = static_cast<std::int32_t>(rng.below(2 * kMaxCoeff + 1)) - kMaxCoeff;
    ASSERT_NO_FATAL_FAILURE(check_inverse(coeffs)) << "random trial " << trial;
  }
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      for (int sign : {1, -1}) {
        std::int32_t coeffs[kBlockSize];
        for (int i = 0; i < kBlockSize; ++i)
          coeffs[i] = sign * ref.c[i / kBlock][y] * ref.c[i % kBlock][x] >= 0
                          ? kMaxCoeff
                          : -kMaxCoeff;
        ASSERT_NO_FATAL_FAILURE(check_inverse(coeffs))
            << "extreme for (" << y << "," << x << ")";
      }
  EXPECT_GT(inverses, 3 * 4000u) << "every residual block's idct was checked";
}

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

TEST(Predict, DcModeAveragesNeighbours) {
  Plane recon(32, 32);
  for (int x = 0; x < 32; ++x) recon.set(x, 7, 100);   // row above y0=8
  for (int y = 0; y < 32; ++y) recon.set(7, y, 200);   // column left of x0=8
  std::uint8_t pred[kBlockSize];
  intra_predict(recon, 8, 8, IntraMode::Dc, pred);
  for (auto p : pred) EXPECT_EQ(p, 150);
}

TEST(Predict, VerticalCopiesTopRow) {
  Plane recon(32, 32);
  for (int x = 0; x < 32; ++x) recon.set(x, 7, static_cast<std::uint8_t>(x));
  std::uint8_t pred[kBlockSize];
  intra_predict(recon, 8, 8, IntraMode::Vertical, pred);
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      EXPECT_EQ(pred[y * kBlock + x], 8 + x);
}

TEST(Predict, HorizontalCopiesLeftColumn) {
  Plane recon(32, 32);
  for (int y = 0; y < 32; ++y) recon.set(7, y, static_cast<std::uint8_t>(2 * y));
  std::uint8_t pred[kBlockSize];
  intra_predict(recon, 8, 8, IntraMode::Horizontal, pred);
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      EXPECT_EQ(pred[y * kBlock + x], 2 * (8 + y));
}

TEST(Predict, BorderBlocksDefaultTo128) {
  Plane recon(32, 32);
  std::uint8_t pred[kBlockSize];
  intra_predict(recon, 0, 0, IntraMode::Dc, pred);
  for (auto p : pred) EXPECT_EQ(p, 128);
}

TEST(Predict, MotionSearchFindsExactShift) {
  // ref shifted by (+3, -2) must be found with zero SAD.
  Plane ref(64, 64), src(64, 64);
  Xoshiro256 rng(4);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      ref.set(x, y, static_cast<std::uint8_t>(rng()));
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      src.set(x, y, ref.at_clamped(x + 3, y - 2));
  std::uint8_t blk[kBlockSize];
  motion_compensate(src, 24, 24, 0, 0, blk);
  const MotionResult mr = motion_search(blk, ref, 24, 24, 0, 0, 8);
  EXPECT_EQ(mr.mvx, 3);
  EXPECT_EQ(mr.mvy, -2);
  EXPECT_EQ(mr.sad, 0u);
}

TEST(Predict, SadIsZeroForPerfectPrediction) {
  Plane src(16, 16);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) src.set(x, y, 55);
  std::uint8_t blk[kBlockSize];
  motion_compensate(src, 0, 0, 0, 0, blk);
  std::uint8_t pred[kBlockSize];
  std::fill(pred, pred + kBlockSize, std::uint8_t{55});
  EXPECT_EQ(block_sad(blk, pred), 0u);
  pred[0] = 60;
  EXPECT_EQ(block_sad(blk, pred), 5u);
}

/// Reference full search: each candidate rebuilt from per-pixel at_clamped
/// reads, tried in raster order; only a strictly lower SAD wins.
MotionResult reference_search(const std::uint8_t src[kBlockSize],
                              const Plane& ref, int x0, int y0, int predx,
                              int predy, int range) {
  MotionResult best;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      const int mvx = predx + dx, mvy = predy + dy;
      std::uint32_t sad = 0;
      for (int y = 0; y < kBlock; ++y)
        for (int x = 0; x < kBlock; ++x) {
          const int d = static_cast<int>(src[y * kBlock + x]) -
                        ref.at_clamped(x0 + mvx + x, y0 + mvy + y);
          sad += static_cast<std::uint32_t>(d < 0 ? -d : d);
        }
      if (sad < best.sad) {
        best.sad = sad;
        best.mvx = mvx;
        best.mvy = mvy;
      }
    }
  }
  return best;
}

TEST(Predict, MotionSearchMatchesReference) {
  Xoshiro256 rng(5);
  // Windows inside the plane, across an edge or corner, and wholly outside.
  int inside = 0, crossing = 0, outside = 0;
  for (auto [w, h] : {std::pair{64, 48}, std::pair{33, 17}, std::pair{8, 8},
                      std::pair{5, 3}}) {
    // Full-range values, then few distinct values so that candidates tie.
    for (int levels : {256, 3}) {
      Plane src(w, h), ref(w, h);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
          src.set(x, y, static_cast<std::uint8_t>(rng.below(levels)));
          ref.set(x, y, static_cast<std::uint8_t>(rng.below(levels)));
        }
      const int last_x = (w - 1) / kBlock * kBlock;
      const int last_y = (h - 1) / kBlock * kBlock;
      for (int y0 : {0, last_y / 2 / kBlock * kBlock, last_y})
        for (int x0 : {0, last_x / 2 / kBlock * kBlock, last_x}) {
          std::uint8_t blk[kBlockSize];
          motion_compensate(src, x0, y0, 0, 0, blk);
          for (int i = 0; i < kBlockSize; ++i)
            ASSERT_EQ(blk[i], src.at_clamped(x0 + i % kBlock,
                                             y0 + i / kBlock));
          for (int range : {0, 1, 4, 8})
            for (int hy : {-30, -5, 0, 5, 30})
              for (int hx : {-30, -5, 0, 5, 30}) {
                const int wx = x0 + hx - range, wy = y0 + hy - range;
                const int side = 2 * range + kBlock;
                if (wx >= 0 && wy >= 0 && wx + side <= w && wy + side <= h)
                  ++inside;
                else if (wx >= w || wy >= h || wx + side <= 0 ||
                         wy + side <= 0)
                  ++outside;
                else
                  ++crossing;
                const MotionResult got =
                    motion_search(blk, ref, x0, y0, hx, hy, range);
                const MotionResult want =
                    reference_search(blk, ref, x0, y0, hx, hy, range);
                ASSERT_EQ(std::make_tuple(got.mvx, got.mvy, got.sad),
                          std::make_tuple(want.mvx, want.mvy, want.sad))
                    << w << "x" << h << " levels " << levels << " block ("
                    << x0 << "," << y0 << ") hint (" << hx << "," << hy
                    << ") range " << range;
              }
        }
    }
  }
  EXPECT_GT(inside, 0);
  EXPECT_GT(crossing, 0);
  EXPECT_GT(outside, 0);
}

// ---------------------------------------------------------------------------
// Frame source
// ---------------------------------------------------------------------------

TEST(FrameSource, DeterministicPerFrame) {
  const Plane a = synth_frame(64, 48, 3, 7);
  const Plane b = synth_frame(64, 48, 3, 7);
  EXPECT_EQ(a, b);
  const Plane c = synth_frame(64, 48, 4, 7);
  EXPECT_NE(a, c);
}

TEST(FrameSource, PsnrMath) {
  EXPECT_EQ(psnr_from_sse(0, 100), 99.0);
  const double p1 = psnr_from_sse(100, 10000);
  const double p2 = psnr_from_sse(1000, 10000);
  EXPECT_GT(p1, p2);
}

// ---------------------------------------------------------------------------
// Encoder end-to-end
// ---------------------------------------------------------------------------

EncoderConfig small_cfg() {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.frames = 6;
  cfg.gop = 4;
  cfg.search_range = 4;
  cfg.worker_threads = 2;
  cfg.frame_threads = 2;
  return cfg;
}

class EncModes : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(Videnc, EncModes, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& c : s)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return s;
                         });

TEST_P(EncModes, EncodeCompletesAndReportsSaneStats) {
  ModeGuard g(GetParam());
  const EncodeResult r = encode(small_cfg());
  EXPECT_EQ(r.stats.frames, 6u);
  EXPECT_GT(r.stats.bits, 0u);
  EXPECT_FALSE(r.bitstream.empty());
  EXPECT_GT(r.stats.psnr, 25.0) << "reconstruction quality sanity";
  EXPECT_LT(r.stats.psnr, 99.0);
}

TEST_P(EncModes, OutputMatchesLockModeBaseline) {
  // THE integration property: bit-exact output regardless of mode/threads.
  EncodeResult baseline;
  {
    ModeGuard g(ExecMode::Lock);
    EncoderConfig cfg = small_cfg();
    cfg.worker_threads = 1;
    cfg.frame_threads = 1;
    baseline = encode(cfg);
  }
  ModeGuard g(GetParam());
  for (int workers : {1, 4}) {
    EncoderConfig cfg = small_cfg();
    cfg.worker_threads = workers;
    cfg.frame_threads = 3;
    const EncodeResult r = encode(cfg);
    EXPECT_EQ(r.bitstream, baseline.bitstream)
        << to_string(GetParam()) << " workers=" << workers;
    EXPECT_EQ(r.stats.bits, baseline.stats.bits);
    EXPECT_EQ(r.stats.sse, baseline.stats.sse);
  }
}

TEST(Videnc, InterFramesCostFewerBitsThanIntra) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig all_intra = small_cfg();
  all_intra.gop = 1;
  EncoderConfig with_inter = small_cfg();
  with_inter.gop = 6;
  const auto a = encode(all_intra);
  const auto b = encode(with_inter);
  EXPECT_LT(b.stats.bits, a.stats.bits)
      << "motion compensation must pay for itself on a moving scene";
}

TEST(Videnc, HigherQpCostsFewerBitsAndLowerPsnr) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig lo = small_cfg();
  lo.qp = 16;
  EncoderConfig hi = small_cfg();
  hi.qp = 40;
  const auto a = encode(lo);
  const auto b = encode(hi);
  EXPECT_GT(a.stats.bits, b.stats.bits);
  EXPECT_GT(a.stats.psnr, b.stats.psnr);
}

TEST(Videnc, EncodePlanesMatchesSynthPath) {
  ModeGuard g(ExecMode::StmCondVar);
  EncoderConfig cfg = small_cfg();
  std::vector<Plane> planes;
  for (int i = 0; i < cfg.frames; ++i)
    planes.push_back(synth_frame(cfg.width, cfg.height, i, cfg.seed));
  const auto a = encode(cfg);
  const auto b = encode_planes(planes, cfg);
  EXPECT_EQ(a.bitstream, b.bitstream);
}

TEST(Videnc, ZeroFramesIsEmptyResult) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig cfg = small_cfg();
  cfg.frames = 0;
  const auto r = encode(cfg);
  EXPECT_TRUE(r.bitstream.empty());
  EXPECT_EQ(r.stats.frames, 0u);
}

TEST(Videnc, ManyWorkersOnTinyFrame) {
  // More workers than rows: claim_row must hand out each row exactly once.
  ModeGuard g(ExecMode::Htm);
  EncoderConfig cfg = small_cfg();
  cfg.worker_threads = 8;
  cfg.frames = 3;
  const auto r = encode(cfg);
  EXPECT_EQ(r.stats.frames, 3u);
  EXPECT_GT(r.stats.bits, 0u);
}

TEST(Videnc, StatsShowWavefrontTransactions) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();
  (void)encode(small_cfg());
  const auto s = aggregate_stats();
  // 6 frames x 4 rows x 6 CTUs of publish + deps + claims: hundreds of
  // transactions must have run speculatively.
  EXPECT_GT(s.commits, 100u);
}

}  // namespace
}  // namespace tle::videnc
