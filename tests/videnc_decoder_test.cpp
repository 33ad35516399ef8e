// Decoder tests: the parallel encoder's bitstream must decode to the
// encoder's reconstruction planes bit-exactly, in every execution mode —
// the strongest end-to-end check of the wavefront implementation.
#include <gtest/gtest.h>

#include "test_support.hpp"
#include "videnc/decoder.hpp"
#include "videnc/encoder.hpp"
#include "videnc/predict.hpp"
#include "videnc/transform.hpp"

namespace tle::videnc {
namespace {

using tle::testing::kAllModes;
using tle::testing::ModeGuard;

EncoderConfig cfg_for(int w, int h, int frames) {
  EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.frames = frames;
  cfg.gop = 4;
  cfg.search_range = 4;
  cfg.worker_threads = 2;
  cfg.frame_threads = 2;
  cfg.keep_recon = true;
  return cfg;
}

TEST(ExpGolomb, UnsignedRoundTrip) {
  // Up to 2^32 - 2, the largest value get_ue reads.
  const std::uint32_t values[] = {0u,          1u,          2u,
                                  7u,          8u,          255u,
                                  65535u,      1000000u,    0x7FFFFFFEu,
                                  0x7FFFFFFFu, 0xFFFFFFFEu};
  bzip::BitWriter bw;
  for (std::uint32_t v : values) put_ue(bw, v);
  auto buf = bw.finish();
  bzip::BitReader br(buf.data(), buf.size());
  for (std::uint32_t v : values) {
    std::uint32_t got;
    ASSERT_TRUE(get_ue(br, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(ExpGolomb, SignedRoundTrip) {
  const std::int32_t values[] = {0,     1,      -1,      2,       -2,
                                 100,   -100,   32767,   -32768,  INT32_MAX,
                                 -INT32_MAX};
  bzip::BitWriter bw;
  for (std::int32_t v : values) put_se(bw, v);
  auto buf = bw.finish();
  bzip::BitReader br(buf.data(), buf.size());
  for (std::int32_t v : values) {
    std::int32_t got;
    ASSERT_TRUE(get_se(br, &got));
    EXPECT_EQ(got, v);
  }
}

class DecModes : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(Videnc, DecModes, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& c : s)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return s;
                         });

TEST_P(DecModes, DecodeReproducesEncoderReconExactly) {
  ModeGuard g(GetParam());
  const EncoderConfig cfg = cfg_for(96, 64, 6);
  const EncodeResult enc = encode(cfg);
  ASSERT_EQ(enc.recon.size(), 6u);
  const DecodedVideo dec = decode_video(enc.bitstream, cfg.width, cfg.height);
  ASSERT_TRUE(dec.ok) << dec.error;
  ASSERT_EQ(dec.frames.size(), enc.recon.size());
  for (std::size_t i = 0; i < dec.frames.size(); ++i)
    EXPECT_EQ(dec.frames[i], enc.recon[i]) << "frame " << i << " mismatch";
}

TEST(VidencDecoder, OddDimensionsRoundTrip) {
  // Partial CTUs / partial blocks at the right and bottom edges.
  ModeGuard g(ExecMode::StmCondVar);
  const EncoderConfig cfg = cfg_for(100, 52, 4);
  const EncodeResult enc = encode(cfg);
  const DecodedVideo dec = decode_video(enc.bitstream, 100, 52);
  ASSERT_TRUE(dec.ok) << dec.error;
  ASSERT_EQ(dec.frames.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(dec.frames[i], enc.recon[i]);
}

TEST(VidencDecoder, AllIntraStreamDecodes) {
  ModeGuard g(ExecMode::Lock);
  EncoderConfig cfg = cfg_for(96, 64, 3);
  cfg.gop = 1;  // all intra
  const EncodeResult enc = encode(cfg);
  const DecodedVideo dec = decode_video(enc.bitstream, 96, 64);
  ASSERT_TRUE(dec.ok) << dec.error;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(dec.frames[i], enc.recon[i]);
}

TEST(VidencDecoder, DecodedQualityMatchesReportedPsnr) {
  ModeGuard g(ExecMode::Htm);
  const EncoderConfig cfg = cfg_for(96, 64, 4);
  const EncodeResult enc = encode(cfg);
  const DecodedVideo dec = decode_video(enc.bitstream, 96, 64);
  ASSERT_TRUE(dec.ok) << dec.error;
  // Recompute SSE against the original source frames.
  std::uint64_t sse = 0;
  for (int i = 0; i < cfg.frames; ++i) {
    const Plane src = synth_frame(cfg.width, cfg.height, i, cfg.seed);
    sse += plane_sse(src, dec.frames[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sse, enc.stats.sse) << "decoder must reproduce reported quality";
}

TEST(VidencDecoder, SlicedStreamDecodesExactly) {
  // Multiple independent slices per frame: the decoder must mirror the
  // slice partition and boundary prediction rules.
  for (int slices : {2, 3}) {
    ModeGuard g(ExecMode::StmCondVar);
    EncoderConfig cfg = cfg_for(96, 64, 4);  // 4 CTU rows
    cfg.slices = slices;
    const EncodeResult enc = encode(cfg);
    const DecodedVideo dec = decode_video(enc.bitstream, 96, 64);
    ASSERT_TRUE(dec.ok) << "slices=" << slices << ": " << dec.error;
    ASSERT_EQ(dec.frames.size(), enc.recon.size());
    for (std::size_t i = 0; i < dec.frames.size(); ++i)
      EXPECT_EQ(dec.frames[i], enc.recon[i])
          << "slices=" << slices << " frame " << i;
  }
}

TEST(VidencDecoder, SlicedEncodeIsDeterministicAcrossThreads) {
  EncoderConfig cfg = cfg_for(96, 64, 4);
  cfg.slices = 2;
  std::vector<std::uint8_t> baseline;
  for (ExecMode m : kAllModes) {
    ModeGuard g(m);
    for (int workers : {1, 4}) {
      EncoderConfig c2 = cfg;
      c2.worker_threads = workers;
      const auto r = encode(c2);
      if (baseline.empty())
        baseline = r.bitstream;
      else
        ASSERT_EQ(r.bitstream, baseline)
            << to_string(m) << " workers=" << workers;
    }
  }
}

TEST(VidencDecoder, SlicesChangeTheBitstream) {
  // Boundary prediction loss: sliced output differs from unsliced.
  ModeGuard g(ExecMode::Lock);
  EncoderConfig one = cfg_for(96, 64, 3);
  EncoderConfig two = cfg_for(96, 64, 3);
  two.slices = 2;
  EXPECT_NE(encode(one).bitstream, encode(two).bitstream);
}

TEST(VidencDecoder, RejectsTruncation) {
  ModeGuard g(ExecMode::Lock);
  const EncoderConfig cfg = cfg_for(96, 64, 2);
  const EncodeResult enc = encode(cfg);
  for (std::size_t cut : {1u, 2u, 5u, 40u}) {
    std::vector<std::uint8_t> clipped(enc.bitstream.begin(),
                                      enc.bitstream.begin() + cut);
    EXPECT_FALSE(decode_video(clipped, 96, 64).ok) << "cut " << cut;
  }
}

TEST(VidencDecoder, HugeMotionVectorsReadTheFrameEdge) {
  // A one-block intra frame, then an inter frame whose block points
  // INT_MAX columns right and INT_MAX rows up: every sample clamps to the
  // top-right one of the reference.
  ModeGuard g(ExecMode::Lock);
  const EncodeResult enc = encode(cfg_for(8, 8, 1));
  std::vector<std::uint8_t> stream = enc.bitstream;
  bzip::BitWriter bw;
  bw.put(1, 1);  // inter
  put_se(bw, INT32_MAX);
  put_se(bw, -INT32_MAX);
  std::int32_t zero[kBlockSize] = {};
  entropy_encode_block(zero, bw);
  const std::vector<std::uint8_t> row = bw.finish();
  stream.insert(stream.end(), {1, 28, 0, 1});  // number, qp, inter, slices
  stream.insert(stream.end(), {static_cast<std::uint8_t>(row.size()), 0, 0});
  stream.insert(stream.end(), row.begin(), row.end());

  const DecodedVideo dec = decode_video(stream, 8, 8);
  ASSERT_TRUE(dec.ok) << dec.error;
  ASSERT_EQ(dec.frames.size(), 2u);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      EXPECT_EQ(dec.frames[1].at(x, y), dec.frames[0].at(7, 0))
          << x << "," << y;
}

TEST(VidencDecoder, RejectsOutOfRangeCoefficientLevels) {
  // One 8x8 intra frame at qp 28 (step 64) whose only coefficient is the DC
  // level 1 + mag. Levels are bounded so that the dequantized coefficient
  // stays within kMaxCoeff, which also keeps the int32 level from wrapping.
  auto decode_dc = [](std::uint32_t mag) {
    bzip::BitWriter bw;
    bw.put(0, 1);  // intra
    bw.put(static_cast<std::uint64_t>(IntraMode::Dc), 2);
    put_ue(bw, 0);    // run
    put_ue(bw, mag);  // level - 1
    bw.put(0, 1);     // positive
    put_ue(bw, kBlockSize);
    const std::vector<std::uint8_t> row = bw.finish();
    // Frame number, qp, intra flag, slices.
    std::vector<std::uint8_t> stream = {0, 28, 1, 1};
    stream.insert(stream.end(),
                  {static_cast<std::uint8_t>(row.size()), 0, 0});
    stream.insert(stream.end(), row.begin(), row.end());
    return decode_video(stream, 8, 8);
  };
  const std::int32_t step = quant_step(28);
  ASSERT_EQ(step, 64);
  const std::uint32_t largest = kMaxCoeff / step;  // level 511: 32,704
  const DecodedVideo ok = decode_dc(largest - 1);
  ASSERT_TRUE(ok.ok) << ok.error;
  ASSERT_EQ(ok.frames.size(), 1u);
  EXPECT_EQ(ok.frames[0].at(0, 0), 255) << "a DC of 32,704 saturates";
  for (std::uint32_t mag : {largest, (1u << 26) - 1, 0x7FFFFFFFu, 0xFFFFFFFEu})
    EXPECT_FALSE(decode_dc(mag).ok) << "level " << mag << " + 1";
}

TEST(VidencDecoder, RejectsBadDimensions) {
  EXPECT_FALSE(decode_video({}, 0, 64).ok);
  EXPECT_FALSE(decode_video({}, 96, -1).ok);
}

TEST(VidencDecoder, EmptyStreamIsZeroFrames) {
  const DecodedVideo dec = decode_video({}, 96, 64);
  EXPECT_TRUE(dec.ok);
  EXPECT_TRUE(dec.frames.empty());
}

}  // namespace
}  // namespace tle::videnc
