// Property sweeps for the encoder: parameter monotonicity, degenerate
// geometries, and configuration-space robustness.
#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/rng.hpp"
#include "videnc/decoder.hpp"
#include "videnc/encoder.hpp"

namespace tle::videnc {
namespace {

using tle::testing::ModeGuard;

EncoderConfig base_cfg() {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.frames = 4;
  cfg.gop = 4;
  cfg.search_range = 4;
  cfg.worker_threads = 2;
  cfg.frame_threads = 2;
  return cfg;
}

TEST(VidencProperty, BitsDecreaseMonotonicallyWithQp) {
  ModeGuard g(ExecMode::Lock);
  std::uint64_t last_bits = ~0ull;
  double last_psnr = 1e9;
  for (int qp : {12, 20, 28, 36, 44}) {
    EncoderConfig cfg = base_cfg();
    cfg.qp = qp;
    const auto r = encode(cfg);
    EXPECT_LT(r.stats.bits, last_bits) << "qp " << qp;
    EXPECT_LT(r.stats.psnr, last_psnr + 0.01) << "qp " << qp;
    last_bits = r.stats.bits;
    last_psnr = r.stats.psnr;
  }
}

class GeometrySweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Videnc, GeometrySweep,
    ::testing::Values(std::pair{16, 16},   // single CTU
                      std::pair{8, 8},     // smaller than a CTU
                      std::pair{24, 16},   // partial CTU column
                      std::pair{16, 40},   // partial CTU row
                      std::pair{176, 144}, // QCIF
                      std::pair{33, 17}),  // awkward odd sizes
    [](const auto& info) {
      return "w" + std::to_string(info.param.first) + "h" +
             std::to_string(info.param.second);
    });

TEST_P(GeometrySweep, EncodesAndDecodesExactly) {
  ModeGuard g(ExecMode::StmCondVar);
  EncoderConfig cfg = base_cfg();
  cfg.width = GetParam().first;
  cfg.height = GetParam().second;
  cfg.frames = 3;
  cfg.keep_recon = true;
  const auto enc = encode(cfg);
  EXPECT_EQ(enc.stats.frames, 3u);
  const auto dec = decode_video(enc.bitstream, cfg.width, cfg.height);
  ASSERT_TRUE(dec.ok) << dec.error;
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(dec.frames[i], enc.recon[i]) << "frame " << i;
}

TEST(VidencProperty, GopOneMeansEveryFrameIntra) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig cfg = base_cfg();
  cfg.gop = 1;
  cfg.keep_recon = true;
  const auto enc = encode(cfg);
  // All-intra streams never reference the previous frame: decoding a
  // middle frame's payload standalone must work. Find frame 1's payload by
  // decoding progressively (cheap check: full decode works and matches).
  const auto dec = decode_video(enc.bitstream, cfg.width, cfg.height);
  ASSERT_TRUE(dec.ok);
  EXPECT_EQ(dec.frames.size(), 4u);
}

TEST(VidencProperty, LargerSearchRangeNeverWorsensSad) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig small = base_cfg();
  small.search_range = 1;
  EncoderConfig big = base_cfg();
  big.search_range = 8;
  const auto a = encode(small);
  const auto b = encode(big);
  EXPECT_LE(b.stats.sad, a.stats.sad)
      << "wider search must find predictions at least as good";
}

TEST(VidencProperty, FrameThreadSweepKeepsOutputIdentical) {
  EncoderConfig cfg = base_cfg();
  cfg.frames = 6;
  std::vector<std::uint8_t> baseline;
  ModeGuard g(ExecMode::Htm);
  for (int ft : {1, 2, 4}) {
    EncoderConfig c2 = cfg;
    c2.frame_threads = ft;
    const auto r = encode(c2);
    if (baseline.empty())
      baseline = r.bitstream;
    else
      EXPECT_EQ(r.bitstream, baseline) << "frame_threads=" << ft;
  }
}

/// A smooth random texture (bilinear over an 8-pixel grid) scrolling up by
/// `step` pixels per frame, so motion vectors point down the reference.
std::vector<Plane> scrolling_clip(int w, int h, int frames, int step) {
  constexpr int kGrid = 8;
  const int gw = w / kGrid + 2;
  const int gh = (h + step * frames) / kGrid + 2;
  std::vector<int> grid(static_cast<std::size_t>(gw) * gh);
  Xoshiro256 rng(7);
  for (int& v : grid) v = static_cast<int>(rng() % 256);
  auto at = [&](int gx, int gy) { return grid[gy * gw + gx]; };
  std::vector<Plane> clip;
  for (int f = 0; f < frames; ++f) {
    Plane p(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const int wy = y + step * f;
        const int gx = x / kGrid, gy = wy / kGrid;
        const int fx = x % kGrid, fy = wy % kGrid;
        const int top = at(gx, gy) * (kGrid - fx) + at(gx + 1, gy) * fx;
        const int bot = at(gx, gy + 1) * (kGrid - fx) + at(gx + 1, gy + 1) * fx;
        p.set(x, y, static_cast<std::uint8_t>(
                        (top * (kGrid - fy) + bot * fy) / (kGrid * kGrid)));
      }
    clip.push_back(std::move(p));
  }
  return clip;
}

// Content moving 20 px (more than one 16 px CTU) per frame walks the
// CTU-above motion hints down the reference, so motion search reads
// reference rows well below the CTU's own. With three frames in flight
// those rows may still be under reconstruction by the previous frame;
// the dependency wait must cover them for the stream to stay identical to
// the one-frame-at-a-time encode.
TEST(VidencProperty, FastVerticalMotionKeepsFrameThreadedOutputIdentical) {
  ModeGuard g(ExecMode::Htm);
  EncoderConfig cfg = base_cfg();
  cfg.height = 160;
  cfg.frames = 8;
  cfg.gop = 8;
  cfg.search_range = 8;
  cfg.worker_threads = 6;
  cfg.frame_threads = 1;
  const std::vector<Plane> clip =
      scrolling_clip(cfg.width, cfg.height, cfg.frames, 20);
  const std::vector<std::uint8_t> serial = encode_planes(clip, cfg).bitstream;
  cfg.frame_threads = 3;
  for (int run = 0; run < 10; ++run)
    EXPECT_EQ(encode_planes(clip, cfg).bitstream, serial) << "run " << run;
}

TEST(VidencProperty, StaticSceneCompressesBetterThanMotion) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig cfg = base_cfg();
  std::vector<Plane> still(4, synth_frame(cfg.width, cfg.height, 0, 1));
  std::vector<Plane> moving;
  for (int i = 0; i < 4; ++i)
    moving.push_back(synth_frame(cfg.width, cfg.height, i * 5, 1));
  const auto a = encode_planes(still, cfg);
  const auto b = encode_planes(moving, cfg);
  EXPECT_LT(a.stats.bits, b.stats.bits);
}

}  // namespace
}  // namespace tle::videnc
