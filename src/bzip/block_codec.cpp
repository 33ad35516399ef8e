#include "bzip/block_codec.hpp"

#include <algorithm>
#include <cstring>

#include "bzip/bitio.hpp"
#include "bzip/bwt.hpp"
#include "bzip/crc32.hpp"
#include "bzip/huffman.hpp"
#include "bzip/mtf_rle.hpp"

namespace tle::bzip {

namespace {

constexpr std::uint32_t kMagic = 0x545A4231;  // "TZB1"
constexpr unsigned kLenBits = 5;              // code length field (0..20)

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

bool get_u32(const std::uint8_t* data, std::size_t n, std::size_t* pos,
             std::uint32_t* v) {
  if (*pos + 4 > n) return false;
  *v = static_cast<std::uint32_t>(data[*pos]) |
       (static_cast<std::uint32_t>(data[*pos + 1]) << 8) |
       (static_cast<std::uint32_t>(data[*pos + 2]) << 16) |
       (static_cast<std::uint32_t>(data[*pos + 3]) << 24);
  *pos += 4;
  return true;
}

}  // namespace

std::vector<std::uint8_t> compress_block(const std::uint8_t* data,
                                         std::size_t n) {
  const std::uint32_t crc = crc32(data, n);

  const std::vector<std::uint8_t> rle1 = rle1_encode(data, n);
  const BwtResult bwt = bwt_forward(rle1.data(), rle1.size());
  const std::vector<std::uint8_t> mtf =
      mtf_encode(bwt.last_column.data(), bwt.last_column.size());
  const std::vector<std::uint16_t> symbols = zrle_encode(mtf.data(), mtf.size());

  std::vector<std::uint64_t> freqs(kSymbolAlphabet, 0);
  for (auto s : symbols) ++freqs[s];
  const std::vector<std::uint8_t> lengths = huffman_code_lengths(freqs);
  const std::vector<std::uint32_t> codes = canonical_codes(lengths);

  std::vector<std::uint8_t> out;
  out.reserve(64 + symbols.size() / 2);
  put_u32(&out, kMagic);
  put_u32(&out, static_cast<std::uint32_t>(n));
  put_u32(&out, crc);
  put_u32(&out, static_cast<std::uint32_t>(rle1.size()));
  put_u32(&out, bwt.primary_index);

  BitWriter bw;
  for (std::size_t s = 0; s < kSymbolAlphabet; ++s) bw.put(lengths[s], kLenBits);
  for (auto s : symbols) bw.put(codes[s], lengths[s]);
  const std::vector<std::uint8_t> payload = bw.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

DecodeResult decompress_block(const std::uint8_t* data, std::size_t n) {
  DecodeResult r;
  std::size_t pos = 0;
  std::uint32_t magic = 0, orig_size = 0, crc = 0, rle1_size = 0, primary = 0;
  if (!get_u32(data, n, &pos, &magic) || magic != kMagic) {
    r.error = "bad magic";
    return r;
  }
  if (!get_u32(data, n, &pos, &orig_size) || !get_u32(data, n, &pos, &crc) ||
      !get_u32(data, n, &pos, &rle1_size) || !get_u32(data, n, &pos, &primary)) {
    r.error = "truncated header";
    return r;
  }

  BitReader br(data + pos, n - pos);
  std::vector<std::uint8_t> lengths(kSymbolAlphabet);
  for (auto& l : lengths) {
    std::uint64_t v;
    if (!br.get(kLenBits, &v) || v > kMaxCodeLen) {
      r.error = "bad code lengths";
      return r;
    }
    l = static_cast<std::uint8_t>(v);
  }
  HuffmanDecoder dec;
  if (!dec.init(lengths)) {
    r.error = "invalid prefix code";
    return r;
  }

  // Every symbol takes at least one bit, so the payload bounds the stream
  // whatever size the header declares.
  std::vector<std::uint16_t> symbols;
  symbols.reserve(std::min<std::size_t>(std::size_t{rle1_size} + 16,
                                        br.bits_left()));
  for (;;) {
    const int s = dec.decode(br);
    if (s < 0) {
      r.error = "truncated symbol stream";
      return r;
    }
    symbols.push_back(static_cast<std::uint16_t>(s));
    if (s == kEob) break;
    if (symbols.size() > 2 * static_cast<std::size_t>(rle1_size) + 64) {
      r.error = "symbol stream overruns declared size";
      return r;
    }
  }

  std::vector<std::uint8_t> mtf;
  if (!zrle_decode(symbols.data(), symbols.size(), rle1_size, &mtf)) {
    r.error = "malformed run-length stream";
    return r;
  }
  if (mtf.size() != rle1_size) {
    r.error = "size mismatch after ZRLE";
    return r;
  }
  if (rle1_size > 0 && primary >= rle1_size) {
    r.error = "bad BWT index";
    return r;
  }

  const std::vector<std::uint8_t> last = mtf_decode(mtf.data(), mtf.size());
  const std::vector<std::uint8_t> rle1 = bwt_inverse(last.data(), last.size(), primary);
  r.data = rle1_decode(rle1.data(), rle1.size());

  if (r.data.size() != orig_size) {
    r.error = "size mismatch after RLE1";
    r.data.clear();
    return r;
  }
  if (crc32(r.data.data(), r.data.size()) != crc) {
    r.error = "CRC mismatch";
    r.data.clear();
    return r;
  }
  r.ok = true;
  return r;
}

}  // namespace tle::bzip
