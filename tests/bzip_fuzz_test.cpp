// Adversarial/structured-input property tests for the bzip codec: inputs
// chosen to stress each pipeline stage's edge behaviour.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdlib>
#include <numeric>

#include "bzip/bitio.hpp"
#include "bzip/block_codec.hpp"
#include "bzip/huffman.hpp"
#include "bzip/mtf_rle.hpp"
#include "util/rng.hpp"

namespace tle::bzip {
namespace {

void expect_roundtrip(const std::vector<std::uint8_t>& in, const char* what) {
  const auto comp = compress_block(in);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << what << ": " << dec.error;
  ASSERT_EQ(dec.data, in) << what;
}

TEST(BzipFuzz, SingleRepeatedByteAllValues) {
  for (int b : {0, 1, 0x41, 0xFE, 0xFF}) {
    std::vector<std::uint8_t> in(5000, static_cast<std::uint8_t>(b));
    expect_roundtrip(in, "repeated byte");
  }
}

TEST(BzipFuzz, SawtoothPatterns) {
  for (int period : {2, 3, 17, 255, 256, 257}) {
    std::vector<std::uint8_t> in(8192);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<std::uint8_t>(i % period);
    expect_roundtrip(in, "sawtooth");
  }
}

TEST(BzipFuzz, AllByteValuesCyclic) {
  std::vector<std::uint8_t> in(256 * 16);
  std::iota(in.begin(), in.begin() + 256, 0);
  for (int k = 1; k < 16; ++k)
    std::copy(in.begin(), in.begin() + 256, in.begin() + k * 256);
  expect_roundtrip(in, "cyclic alphabet");
}

TEST(BzipFuzz, RunsAtRle1Boundaries) {
  // Runs hitting RLE1's 4- and 254-run thresholds back to back, with the
  // count byte equal to the run byte where possible.
  std::vector<std::uint8_t> in;
  for (std::size_t run : {3u, 4u, 5u, 100u, 253u, 254u, 255u, 300u, 508u}) {
    in.insert(in.end(), run, static_cast<std::uint8_t>(run & 0xFF));
    in.push_back('#');
  }
  expect_roundtrip(in, "rle boundaries");
}

TEST(BzipFuzz, TinySizes) {
  Xoshiro256 rng(1);
  for (std::size_t n = 0; n <= 16; ++n) {
    std::vector<std::uint8_t> in(n);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng());
    expect_roundtrip(in, "tiny");
  }
}

TEST(BzipFuzz, AlternatingCompressibleAndNoise) {
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> in;
  for (int seg = 0; seg < 24; ++seg) {
    if (seg % 2 == 0) {
      in.insert(in.end(), 400, static_cast<std::uint8_t>('a' + seg % 26));
    } else {
      for (int i = 0; i < 400; ++i)
        in.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  expect_roundtrip(in, "mixed");
}

TEST(BzipFuzz, PeriodicInputsStressRotationSort) {
  // Highly periodic data creates maximal ties in the BWT rotation sort.
  for (int period : {1, 2, 4, 8}) {
    std::vector<std::uint8_t> in(4096);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<std::uint8_t>((i / static_cast<std::size_t>(period)) & 1 ? 'x' : 'y');
    expect_roundtrip(in, "periodic");
  }
}

TEST(BzipFuzz, RandomSizedRandomContent) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = rng.below(20000);
    std::vector<std::uint8_t> in(n);
    // Mix distribution widths: narrow alphabets produce long MTF zero runs.
    const std::uint64_t width = 1 + rng.below(256);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.below(width));
    expect_roundtrip(in, "random");
  }
}

TEST(BzipFuzz, HeaderFieldCorruptionAlwaysDetected) {
  const auto in = std::vector<std::uint8_t>(3000, 'q');
  const auto comp = compress_block(in);
  // Corrupt each of the five header words in turn.
  for (std::size_t field = 0; field < 5; ++field) {
    auto bad = comp;
    bad[field * 4 + 1] ^= 0x5A;
    const auto dec = decompress_block(bad);
    EXPECT_FALSE(dec.ok && dec.data == in) << "field " << field;
  }
}

TEST(BzipFuzz, ZeroRunPastDeclaredSizeRejected) {
  // A block that declares a legal 100000-byte RLE1 stream, but whose payload
  // is 41 RUNB digits and EOB: one zero run of 2 * (2^41 - 1) bytes. The
  // decoder must reject the run, not try to allocate it.
  std::vector<std::uint8_t> block = compress_block(nullptr, 0);
  block.resize(20);  // the header: magic, size, CRC, RLE1 size, BWT index
  for (std::size_t field : {1u, 3u})
    for (int b = 0; b < 4; ++b)
      block[field * 4 + b] = static_cast<std::uint8_t>(100000u >> (8 * b));
  std::vector<std::uint8_t> lengths(kSymbolAlphabet, 0);
  lengths[kRunB] = 1;
  lengths[kEob] = 1;
  const auto codes = canonical_codes(lengths);
  BitWriter bw;
  for (auto l : lengths) bw.put(l, 5);  // the 5-bit code-length table
  for (int d = 0; d < 41; ++d) bw.put(codes[kRunB], 1);
  bw.put(codes[kEob], 1);
  const auto payload = bw.finish();
  block.insert(block.end(), payload.begin(), payload.end());

  const auto dec = decompress_block(block);
  EXPECT_FALSE(dec.ok);
  EXPECT_EQ(dec.error, "malformed run-length stream");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Decode `block` with the address space limited to 1 GiB; exit 0 if the
/// decoder reports the size mismatch, 1 on any other result.
[[noreturn]] void decode_in_1gib(const std::vector<std::uint8_t>& block) {
  const rlimit lim{1ul << 30, 1ul << 30};
  setrlimit(RLIMIT_AS, &lim);
  const auto dec = decompress_block(block);
  std::exit(!dec.ok && dec.error == "size mismatch after ZRLE" ? 0 : 1);
}

TEST(BzipFuzz, DeclaredSizeReservesNothingThePayloadCannotHold) {
  // A 3 KB block whose header declares an RLE1 size near 4 GiB. The decoder
  // must size its buffers from the payload and report the mismatch; under a
  // 1 GiB address-space limit, reserving the declared size throws
  // std::bad_alloc and kills the child instead.
  if (kSanitized)
    GTEST_SKIP() << "sanitizer shadow memory exceeds the address-space limit";
  Xoshiro256 rng(4);
  std::vector<std::uint8_t> in(3000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto comp = compress_block(in);
  for (std::uint32_t declared : {0xFFFFFFFFu, 0xFFFFFFEFu, 0x80000000u}) {
    auto bad = comp;
    for (int b = 0; b < 4; ++b)  // the RLE1 size, the fourth header word
      bad[12 + b] = static_cast<std::uint8_t>(declared >> (8 * b));
    EXPECT_EXIT(decode_in_1gib(bad), ::testing::ExitedWithCode(0), "")
        << "declared RLE1 size " << declared;
  }
}

}  // namespace
}  // namespace tle::bzip
