// Tests for the from-scratch bzip2-style codec: each pipeline stage has unit
// tests plus known vectors, and the whole block codec has round-trip property
// tests and corruption detection tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "bzip/bitio.hpp"
#include "bzip/block_codec.hpp"
#include "bzip/bwt.hpp"
#include "bzip/crc32.hpp"
#include "bzip/huffman.hpp"
#include "bzip/mtf_rle.hpp"
#include "pipez/pipeline.hpp"
#include "util/rng.hpp"

namespace tle::bzip {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string str(const std::vector<std::uint8_t>& v) {
  return {v.begin(), v.end()};
}

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter w;
  w.put(0b101, 3);
  w.put(0xDEAD, 16);
  w.put(1, 1);
  w.put(0x3FFFFFFFF, 34);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  std::uint64_t v;
  ASSERT_TRUE(r.get(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.get(16, &v));
  EXPECT_EQ(v, 0xDEADu);
  ASSERT_TRUE(r.get(1, &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(r.get(34, &v));
  EXPECT_EQ(v, 0x3FFFFFFFFull);
}

TEST(BitIo, ReaderDetectsUnderrun) {
  BitWriter w;
  w.put(0xF, 4);
  auto buf = w.finish();  // one byte
  BitReader r(buf.data(), buf.size());
  std::uint64_t v;
  EXPECT_TRUE(r.get(8, &v));  // padded byte is readable
  EXPECT_FALSE(r.get(8, &v));
}

TEST(BitIo, ManySingleBits) {
  BitWriter w;
  for (int i = 0; i < 1000; ++i) w.put(static_cast<std::uint64_t>(i % 2), 1);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(r.get_bit(), i % 2) << i;
}

// ---------------------------------------------------------------------------
// CRC32 known vectors
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  const auto v = bytes("123456789");
  EXPECT_EQ(crc32(v.data(), v.size()), 0xCBF43926u);  // IEEE check value
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  const auto a = bytes("a");
  EXPECT_EQ(crc32(a.data(), 1), 0xE8B7BE43u);
}

/// The CRC by its definition: the reflected polynomial, one bit at a time.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseDefinition) {
  // Lengths 0-64 cover the eight-byte steps and every tail; the start
  // offsets cover every alignment of the eight-byte loads.
  Xoshiro256 rng(21);
  std::vector<std::uint8_t> buf(64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t n = 0; n <= 64; ++n) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = bitwise_crc32(p, n, 0);
      ASSERT_EQ(crc32(p, n), want) << "offset " << off << " length " << n;
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc32(p, n, seed), bitwise_crc32(p, n, seed))
          << "offset " << off << " length " << n << " seed " << seed;
      // Chained: the CRC of a prefix seeds the CRC of the rest.
      for (std::size_t cut = 0; cut <= n; ++cut)
        ASSERT_EQ(crc32(p + cut, n - cut, crc32(p, cut)), want)
            << "offset " << off << " length " << n << " cut " << cut;
    }
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto v = bytes("the quick brown fox");
  const auto base = crc32(v.data(), v.size());
  v[3] ^= 1;
  EXPECT_NE(crc32(v.data(), v.size()), base);
}

// ---------------------------------------------------------------------------
// BWT
// ---------------------------------------------------------------------------

TEST(Bwt, BananaKnownVector) {
  const auto in = bytes("banana");
  const auto r = bwt_forward(in.data(), in.size());
  EXPECT_EQ(str(r.last_column), "nnbaaa");
  EXPECT_EQ(r.primary_index, 3u);
}

TEST(Bwt, InverseRecoversBanana) {
  const auto in = bytes("banana");
  const auto f = bwt_forward(in.data(), in.size());
  const auto back = bwt_inverse(f.last_column.data(), f.last_column.size(),
                                f.primary_index);
  EXPECT_EQ(str(back), "banana");
}

TEST(Bwt, EdgeCases) {
  // Empty.
  auto e = bwt_forward(nullptr, 0);
  EXPECT_TRUE(e.last_column.empty());
  EXPECT_TRUE(bwt_inverse(nullptr, 0, 0).empty());
  // Single byte.
  const std::uint8_t one = 'x';
  auto s = bwt_forward(&one, 1);
  ASSERT_EQ(s.last_column.size(), 1u);
  EXPECT_EQ(s.last_column[0], 'x');
  // All-equal (degenerate rotations).
  const auto all = bytes("aaaaaaaa");
  auto a = bwt_forward(all.data(), all.size());
  EXPECT_EQ(str(bwt_inverse(a.last_column.data(), 8, a.primary_index)),
            "aaaaaaaa");
  // Periodic.
  const auto per = bytes("abababab");
  auto p = bwt_forward(per.data(), per.size());
  EXPECT_EQ(str(bwt_inverse(p.last_column.data(), 8, p.primary_index)),
            "abababab");
}

/// The output bwt_forward must produce, by brute force: rotation start
/// indices sorted by cyclic comparison, equal rotations by start index.
BwtResult reference_bwt(const std::vector<std::uint8_t>& in) {
  const std::size_t n = in.size();
  std::vector<std::uint8_t> twice(in);  // rotation a is twice[a, a + n)
  twice.insert(twice.end(), in.begin(), in.end());
  std::vector<std::uint32_t> rotations(n);
  std::iota(rotations.begin(), rotations.end(), 0u);
  std::sort(rotations.begin(), rotations.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const int c = std::memcmp(twice.data() + a, twice.data() + b, n);
              return c != 0 ? c < 0 : a < b;
            });
  BwtResult r;
  for (std::size_t j = 0; j < n; ++j) {
    r.last_column.push_back(in[(rotations[j] + n - 1) % n]);
    if (rotations[j] == 0) r.primary_index = static_cast<std::uint32_t>(j);
  }
  return r;
}

TEST(Bwt, MatchesReferenceRotationSort) {
  // Round trips cannot see the order of equal rotations; the compressed
  // stream can, so compare the transform itself.
  auto expect_reference = [](const std::vector<std::uint8_t>& in,
                             const std::string& what) {
    const BwtResult want = reference_bwt(in);
    const BwtResult got = bwt_forward(in.data(), in.size());
    ASSERT_EQ(str(got.last_column), str(want.last_column)) << what;
    ASSERT_EQ(got.primary_index, want.primary_index) << what;
  };
  Xoshiro256 rng(11);
  auto random_bytes = [&](std::size_t n, std::uint64_t alphabet) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(alphabet));
    return v;
  };
  for (std::size_t n = 1; n <= 64; ++n) {
    const std::string at = " n=" + std::to_string(n);
    for (std::uint64_t alphabet : {2, 4, 256})
      expect_reference(random_bytes(n, alphabet),
                       "random/" + std::to_string(alphabet) + at);
    expect_reference(std::vector<std::uint8_t>(n, 'a'), "all-equal" + at);
    // Periods that divide n give equal rotations; the others give
    // rotations that agree on long prefixes.
    for (std::size_t period = 2; period <= 8 && period < n; ++period) {
      const auto unit = random_bytes(period, 2);
      std::vector<std::uint8_t> in(n);
      for (std::size_t i = 0; i < n; ++i) in[i] = unit[i % period];
      expect_reference(in, "period " + std::to_string(period) + at);
    }
  }
  // Longer inputs take more doubling rounds.
  for (std::size_t n : {1000u, 4096u})
    for (std::uint64_t alphabet : {2, 4, 256})
      expect_reference(random_bytes(n, alphabet),
                       "random/" + std::to_string(alphabet) +
                           " n=" + std::to_string(n));
  std::vector<std::uint8_t> periodic(600);
  for (std::size_t i = 0; i < periodic.size(); ++i)
    periodic[i] = "aab"[i % 3];
  expect_reference(periodic, "period 3 n=600");
  // Groups that settle at different rounds, or never: random text with a
  // periodic island settles outside the island first; blocks of period 3
  // to 7 hold equal rotations when the period divides n (1260 = 4*5*7*9)
  // and rotations that agree up to the block's seam when it does not.
  for (std::size_t period : {2u, 3u, 5u}) {
    auto text = random_bytes(3000, 256);
    for (std::size_t i = 1000 + period; i < 2000; ++i)
      text[i] = text[i - period];
    expect_reference(text, "random text, island of period " +
                               std::to_string(period));
  }
  for (std::size_t period = 3; period <= 7; ++period)
    for (std::size_t n : {1259u, 1260u, 1261u})
      for (std::uint64_t alphabet : {2, 256}) {
        const auto unit = random_bytes(period, alphabet);
        std::vector<std::uint8_t> in(n);
        for (std::size_t i = 0; i < n; ++i) in[i] = unit[i % period];
        expect_reference(in, "period " + std::to_string(period) + "/" +
                                 std::to_string(alphabet) +
                                 " n=" + std::to_string(n));
      }
}

TEST(Bwt, RandomRoundTripProperty) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(5000);
    std::vector<std::uint8_t> in(n);
    // Mix of random and structured content.
    const int alpha = trial % 2 ? 4 : 256;
    for (auto& b : in)
      b = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(alpha)));
    const auto f = bwt_forward(in.data(), n);
    const auto back =
        bwt_inverse(f.last_column.data(), n, f.primary_index);
    ASSERT_EQ(back, in) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// RLE1
// ---------------------------------------------------------------------------

TEST(Rle1, ShortRunsPassThrough) {
  const auto in = bytes("aabbccdd");
  EXPECT_EQ(rle1_encode(in.data(), in.size()), in);
}

TEST(Rle1, LongRunCompresses) {
  std::vector<std::uint8_t> in(100, 'x');
  const auto enc = rle1_encode(in.data(), in.size());
  EXPECT_LT(enc.size(), in.size());
  EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in);
}

TEST(Rle1, ExactRunBoundaries) {
  for (std::size_t run : {3u, 4u, 5u, 253u, 254u, 255u, 600u}) {
    std::vector<std::uint8_t> in(run, 'q');
    in.push_back('z');
    const auto enc = rle1_encode(in.data(), in.size());
    EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in) << "run " << run;
  }
}

TEST(Rle1, CountByteEqualToRunByte) {
  // Run of 4 + 'a' extra repeats: the count byte equals the run byte in the
  // encoded stream — the decoder must not misparse it.
  std::vector<std::uint8_t> in(4 + 'a', 'a');
  const auto enc = rle1_encode(in.data(), in.size());
  EXPECT_EQ(rle1_decode(enc.data(), enc.size()), in);
}

TEST(Rle1, RandomRoundTrip) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> in;
    const std::size_t runs = rng.below(50);
    for (std::size_t i = 0; i < runs; ++i) {
      const auto b = static_cast<std::uint8_t>(rng.below(4));
      in.insert(in.end(), 1 + rng.below(600), b);
    }
    const auto enc = rle1_encode(in.data(), in.size());
    ASSERT_EQ(rle1_decode(enc.data(), enc.size()), in) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// MTF
// ---------------------------------------------------------------------------

TEST(Mtf, KnownBehaviour) {
  // First occurrence of byte b encodes as its current table index; repeats
  // of the same byte encode as 0.
  const auto in = bytes("aaabbb");
  const auto enc = mtf_encode(in.data(), in.size());
  EXPECT_EQ(enc[0], 'a');  // 'a' starts at index 97
  EXPECT_EQ(enc[1], 0);
  EXPECT_EQ(enc[2], 0);
  EXPECT_EQ(enc[3], 'b');  // 'b' is at 98 but 'a' moved ahead: index 98
  EXPECT_EQ(enc[4], 0);
  EXPECT_EQ(enc[5], 0);
}

TEST(Mtf, RoundTripAllBytes) {
  std::vector<std::uint8_t> in(512);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i * 37);
  const auto enc = mtf_encode(in.data(), in.size());
  EXPECT_EQ(mtf_decode(enc.data(), enc.size()), in);
}

// ---------------------------------------------------------------------------
// ZRLE
// ---------------------------------------------------------------------------

TEST(Zrle, ZeroRunsEncodeCompactly) {
  std::vector<std::uint8_t> in(1000, 0);
  const auto sym = zrle_encode(in.data(), in.size());
  EXPECT_LE(sym.size(), 12u);  // ~log2(1000) digits + EOB
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(zrle_decode(sym.data(), sym.size(), in.size(), &out));
  EXPECT_EQ(out, in);
  std::vector<std::uint8_t> cut;
  EXPECT_FALSE(zrle_decode(sym.data(), sym.size(), in.size() - 1, &cut))
      << "a run past the limit";
  EXPECT_TRUE(cut.empty());
}

TEST(Zrle, AllRunLengthsRoundTrip) {
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<std::uint8_t> in(len, 0);
    in.push_back(42);
    const auto sym = zrle_encode(in.data(), in.size());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(zrle_decode(sym.data(), sym.size(), in.size(), &out)) << len;
    ASSERT_EQ(out, in) << len;
    std::vector<std::uint8_t> cut;
    ASSERT_FALSE(zrle_decode(sym.data(), sym.size(), in.size() - 1, &cut))
        << "a literal past the limit, run " << len;
  }
}

TEST(Zrle, RejectsMissingEob) {
  const std::uint16_t syms[] = {kRunA, 5};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(zrle_decode(syms, 2, 16, &out));
}

TEST(Zrle, RejectsTrailingGarbageAfterEob) {
  const std::uint16_t syms[] = {kEob, kRunA};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(zrle_decode(syms, 2, 16, &out));
}

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

TEST(Huffman, SkewedFrequenciesGiveShortCodesToCommonSymbols) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[0] = 1000;
  freqs[1] = 10;
  freqs[2] = 1;
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_LE(lens[0], lens[1]);
  EXPECT_LE(lens[1], lens[2]);
  EXPECT_EQ(lens[5], 0) << "unused symbols get no code";
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(4, 0);
  freqs[2] = 5;
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_EQ(lens[2], 1);
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lens));
  const auto codes = canonical_codes(lens);
  BitWriter w;
  for (int i = 0; i < 5; ++i) w.put(codes[2], lens[2]);
  auto buf = w.finish();
  BitReader r(buf.data(), buf.size());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dec.decode(r), 2);
}

TEST(Huffman, DepthLimitRespected) {
  // Fibonacci-like frequencies force deep trees; limiting must kick in.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const auto t = a + b;
    a = b;
    b = t;
  }
  const auto lens = huffman_code_lengths(freqs);
  for (auto l : lens) EXPECT_LE(l, kMaxCodeLen);
}

TEST(Huffman, EncodeDecodeRandomStream) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> freqs(kSymbolAlphabet, 0);
  std::vector<std::uint16_t> stream(5000);
  for (auto& s : stream) {
    // Zipf-flavoured distribution.
    const auto z = rng.below(100);
    s = static_cast<std::uint16_t>(z < 60 ? rng.below(4)
                                          : rng.below(kSymbolAlphabet));
    ++freqs[s];
  }
  const auto lens = huffman_code_lengths(freqs);
  const auto codes = canonical_codes(lens);
  BitWriter w;
  for (auto s : stream) w.put(codes[s], lens[s]);
  auto buf = w.finish();
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lens));
  BitReader r(buf.data(), buf.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    ASSERT_EQ(dec.decode(r), stream[i]) << "symbol " << i;
}

TEST(Huffman, TablePathMatchesCanonicalWalk) {
  // decode() looks codes of up to kTableBits bits up in its table and walks
  // the rest bit by bit; both must give what the walk alone gives, on code
  // lengths from 1 up to kMaxCodeLen, on incomplete codes (bits no code
  // starts with), and on a stream cut at every bit.
  std::vector<std::vector<std::uint8_t>> codes;
  std::vector<std::uint8_t> chain;  // one code of each length, complete
  for (unsigned l = 1; l <= kMaxCodeLen; ++l)
    chain.push_back(static_cast<std::uint8_t>(l));
  chain.push_back(kMaxCodeLen);
  codes.push_back(chain);
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    // Random lengths from the table width up, kept while they fit.
    std::vector<std::uint8_t> lengths;
    std::uint64_t kraft = 0;
    for (int k = 0; k < 400; ++k) {
      const auto l = static_cast<unsigned>(
          HuffmanDecoder::kTableBits - 2 +
          rng.below(kMaxCodeLen - HuffmanDecoder::kTableBits + 3));
      const std::uint64_t w = 1ULL << (kMaxCodeLen - l);
      if (kraft + w > (1ULL << kMaxCodeLen)) continue;
      kraft += w;
      lengths.push_back(static_cast<std::uint8_t>(l));
    }
    codes.push_back(lengths);
  }
  for (std::size_t c = 0; c < codes.size(); ++c) {
    const auto& lengths = codes[c];
    HuffmanDecoder dec;
    ASSERT_TRUE(dec.init(lengths)) << "code " << c;
    const auto canon = canonical_codes(lengths);
    std::vector<std::uint16_t> stream(120);
    for (auto& s : stream)
      s = static_cast<std::uint16_t>(rng.below(lengths.size()));
    BitWriter w;
    std::size_t bits = 0;
    for (auto s : stream) {
      w.put(canon[s], lengths[s]);
      bits += lengths[s];
    }
    const auto full = w.finish();
    {
      BitReader r(full.data(), full.size());
      for (std::size_t i = 0; i < stream.size(); ++i)
        ASSERT_EQ(dec.decode(r), stream[i]) << "code " << c << " symbol " << i;
    }
    for (std::size_t cut = 0; cut <= bits; ++cut) {
      // The first `cut` bits, zero-padded to a byte.
      std::vector<std::uint8_t> part(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>((cut + 7) / 8));
      if (cut % 8)
        part.back() &= static_cast<std::uint8_t>(0xFF00 >> (cut % 8));
      BitReader table(part.data(), part.size()), walk(part.data(), part.size());
      for (std::size_t i = 0; i <= stream.size(); ++i) {
        const int want = dec.decode_walk(walk);
        ASSERT_EQ(dec.decode(table), want)
            << "code " << c << " cut " << cut << " symbol " << i;
        if (want < 0) break;
      }
    }
  }
}

TEST(Huffman, DecoderRejectsOvercompleteCode) {
  std::vector<std::uint8_t> lens = {1, 1, 1};  // Kraft sum 1.5 > 1
  HuffmanDecoder dec;
  EXPECT_FALSE(dec.init(lens));
}

// ---------------------------------------------------------------------------
// Block codec end-to-end
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> compressible_corpus(std::size_t n, std::uint64_t seed) {
  // Markov-ish text: long repeated phrases with occasional noise.
  static const char* words[] = {"the ",     "quick ", "brown ",  "fox ",
                                "jumps ",   "over ",  "lazy ",   "dog ",
                                "streams ", "block ", "cipher ", "memory "};
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const char* w = words[rng.below(12)];
    out.insert(out.end(), w, w + std::strlen(w));
    if (rng.chance(0.02)) out.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  out.resize(n);
  return out;
}

TEST(BlockCodec, RoundTripText) {
  const auto in = compressible_corpus(50000, 1);
  const auto comp = compress_block(in);
  EXPECT_LT(comp.size(), in.size() / 2) << "text must compress well";
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

TEST(BlockCodec, RoundTripEmpty) {
  const auto comp = compress_block(nullptr, 0);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_TRUE(dec.data.empty());
}

TEST(BlockCodec, RoundTripIncompressibleRandom) {
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> in(20000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto comp = compress_block(in);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

TEST(BlockCodec, RoundTripHighlyRepetitive) {
  std::vector<std::uint8_t> in(100000, 'A');
  for (std::size_t i = 0; i < in.size(); i += 1000) in[i] = 'B';
  const auto comp = compress_block(in);
  EXPECT_LT(comp.size(), 2000u);
  const auto dec = decompress_block(comp);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.data, in);
}

TEST(BlockCodec, RandomSizesProperty) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = rng.below(9000);
    auto in = compressible_corpus(n, 100 + static_cast<std::uint64_t>(trial));
    const auto comp = compress_block(in);
    const auto dec = decompress_block(comp);
    ASSERT_TRUE(dec.ok) << "trial " << trial << ": " << dec.error;
    ASSERT_EQ(dec.data, in) << "trial " << trial;
  }
}

TEST(BlockCodec, DetectsCorruption) {
  const auto in = compressible_corpus(8000, 5);
  auto comp = compress_block(in);
  int detected = 0;
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    auto bad = comp;
    bad[rng.below(bad.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const auto dec = decompress_block(bad);
    if (!dec.ok)
      ++detected;
    else if (dec.data != in)
      ADD_FAILURE() << "silent corruption accepted at trial " << trial;
  }
  EXPECT_EQ(detected, 40) << "every single-byte corruption must be caught";
}

TEST(BlockCodec, DetectsTruncation) {
  const auto in = compressible_corpus(4000, 6);
  const auto comp = compress_block(in);
  for (std::size_t cut : {0u, 3u, 10u, 19u, 21u}) {
    const auto dec = decompress_block(comp.data(), std::min(cut, comp.size()));
    EXPECT_FALSE(dec.ok) << "cut " << cut;
  }
  const auto dec = decompress_block(comp.data(), comp.size() - 5);
  EXPECT_FALSE(dec.ok);
}

TEST(BlockCodec, CorpusStreamIsPinned) {
  // The block format's bytes, not only its round trip: a stage change that
  // alters the stream (the order of equal rotations, a code length) changes
  // this size or CRC. A faster stage must reproduce both.
  const auto in = pipez::make_corpus(1u << 20, 1);
  const auto comp = compress_block(in);
  EXPECT_EQ(comp.size(), 143634u);
  EXPECT_EQ(crc32(comp.data(), comp.size()), 0x9FACE9EDu);
}

TEST(BlockCodec, RejectsGarbageInput) {
  std::vector<std::uint8_t> junk(100, 0xCD);
  EXPECT_FALSE(decompress_block(junk).ok);
  EXPECT_FALSE(decompress_block(nullptr, 0).ok);
}

}  // namespace
}  // namespace tle::bzip
