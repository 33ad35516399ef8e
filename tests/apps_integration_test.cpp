// Cross-module integration: both applications running back-to-back in one
// process under every mode, mode switches between runs, and
// encoder→decoder→codec interplay.
#include <gtest/gtest.h>

#include "pipez/pipeline.hpp"
#include "test_support.hpp"
#include "videnc/decoder.hpp"
#include "videnc/encoder.hpp"

namespace tle {
namespace {

using testing::kAllModes;
using testing::ModeGuard;

videnc::EncoderConfig small_video() {
  videnc::EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.frames = 4;
  cfg.gop = 4;
  cfg.search_range = 4;
  cfg.worker_threads = 2;
  cfg.frame_threads = 2;
  return cfg;
}

TEST(AppsIntegration, BothAppsRunConsecutivelyInEveryMode) {
  const auto corpus = pipez::make_corpus(150000, 99);
  pipez::Config pcfg;
  pcfg.worker_threads = 3;
  pcfg.block_size = 40000;

  std::vector<std::uint8_t> video_ref;
  std::vector<std::uint8_t> pipez_ref;
  for (ExecMode m : kAllModes) {
    ModeGuard g(m);
    // pipez roundtrip.
    const auto compressed = pipez::compress(corpus, pcfg);
    const auto back = pipez::decompress(compressed, pcfg);
    ASSERT_TRUE(back.ok) << to_string(m) << ": " << back.error;
    ASSERT_EQ(back.data, corpus) << to_string(m);
    if (pipez_ref.empty())
      pipez_ref = compressed;
    else
      EXPECT_EQ(compressed, pipez_ref) << to_string(m);
    // videnc encode.
    const auto enc = videnc::encode(small_video());
    ASSERT_FALSE(enc.bitstream.empty()) << to_string(m);
    if (video_ref.empty())
      video_ref = enc.bitstream;
    else
      EXPECT_EQ(enc.bitstream, video_ref) << to_string(m);
  }
}

TEST(AppsIntegration, EncodeCompressDecodePipeline) {
  // Feed the video bitstream through the pipez compressor and back, then
  // decode it — two substrates composed end-to-end.
  ModeGuard g(ExecMode::Htm);
  videnc::EncoderConfig vcfg = small_video();
  vcfg.keep_recon = true;
  const auto enc = videnc::encode(vcfg);

  pipez::Config pcfg;
  pcfg.worker_threads = 2;
  pcfg.block_size = 8192;
  const auto compressed = pipez::compress(enc.bitstream, pcfg);
  const auto restored = pipez::decompress(compressed, pcfg);
  ASSERT_TRUE(restored.ok) << restored.error;
  ASSERT_EQ(restored.data, enc.bitstream);

  const auto dec = videnc::decode_video(restored.data, vcfg.width, vcfg.height);
  ASSERT_TRUE(dec.ok) << dec.error;
  ASSERT_EQ(dec.frames.size(), enc.recon.size());
  for (std::size_t i = 0; i < dec.frames.size(); ++i)
    EXPECT_EQ(dec.frames[i], enc.recon[i]);
}

TEST(AppsIntegration, RepeatedModeSwitchesLeaveNoResidue) {
  // Rapid mode flips between small workloads: stale descriptor state or
  // metadata (orecs, htm sequence) would surface as aborts or wrong
  // results.
  const auto corpus = pipez::make_corpus(30000, 17);
  pipez::Config pcfg;
  pcfg.worker_threads = 2;
  pcfg.block_size = 10000;
  for (int round = 0; round < 3; ++round) {
    for (ExecMode m : kAllModes) {
      ModeGuard g(m);
      const auto back = pipez::decompress(pipez::compress(corpus, pcfg), pcfg);
      ASSERT_TRUE(back.ok) << "round " << round << " " << to_string(m);
      ASSERT_EQ(back.data, corpus);
    }
  }
}

}  // namespace
}  // namespace tle
