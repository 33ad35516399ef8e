#include "bzip/mtf_rle.hpp"

#include <numeric>

namespace tle::bzip {

// --- RLE1 -------------------------------------------------------------------

std::vector<std::uint8_t> rle1_encode(const std::uint8_t* data, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n + n / 32);
  std::size_t i = 0;
  while (i < n) {
    const std::uint8_t b = data[i];
    std::size_t run = 1;
    while (i + run < n && data[i + run] == b && run < 4 + 250) ++run;
    if (run < 4) {
      for (std::size_t k = 0; k < run; ++k) out.push_back(b);
    } else {
      // Four literal copies then the number of additional repeats.
      for (int k = 0; k < 4; ++k) out.push_back(b);
      out.push_back(static_cast<std::uint8_t>(run - 4));
    }
    i += run;
  }
  return out;
}

std::vector<std::uint8_t> rle1_decode(const std::uint8_t* data, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n);
  std::size_t i = 0;
  while (i < n) {
    const std::uint8_t b = data[i];
    std::size_t run = 1;
    while (run < 4 && i + run < n && data[i + run] == b) ++run;
    for (std::size_t k = 0; k < run; ++k) out.push_back(b);
    i += run;
    if (run == 4) {
      // A count byte always follows a 4-run in the encoded form.
      if (i < n) {
        const std::uint8_t extra = data[i++];
        out.insert(out.end(), extra, b);
      }
    }
  }
  return out;
}

// --- MTF --------------------------------------------------------------------

namespace {
struct MtfTable {
  std::uint8_t order[256];
  MtfTable() { std::iota(order, order + 256, 0); }

  /// Find `b`, return its index, and move it to the front.
  std::uint8_t encode(std::uint8_t b) {
    std::uint8_t i = 0;
    while (order[i] != b) ++i;
    for (std::uint8_t k = i; k > 0; --k) order[k] = order[k - 1];
    order[0] = b;
    return i;
  }

  std::uint8_t decode(std::uint8_t idx) {
    const std::uint8_t b = order[idx];
    for (std::uint8_t k = idx; k > 0; --k) order[k] = order[k - 1];
    order[0] = b;
    return b;
  }
};
}  // namespace

std::vector<std::uint8_t> mtf_encode(const std::uint8_t* data, std::size_t n) {
  MtfTable table;
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = table.encode(data[i]);
  return out;
}

std::vector<std::uint8_t> mtf_decode(const std::uint8_t* data, std::size_t n) {
  MtfTable table;
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = table.decode(data[i]);
  return out;
}

// --- ZRLE --------------------------------------------------------------------

namespace {
void emit_zero_run(std::size_t run, std::vector<std::uint16_t>* out) {
  // Bijective base-2 with digits {1 -> RUNA, 2 -> RUNB}.
  while (run > 0) {
    if (run & 1) {
      out->push_back(kRunA);
      run = (run - 1) / 2;
    } else {
      out->push_back(kRunB);
      run = (run - 2) / 2;
    }
  }
}
}  // namespace

std::vector<std::uint16_t> zrle_encode(const std::uint8_t* mtf, std::size_t n) {
  std::vector<std::uint16_t> out;
  out.reserve(n / 2 + 16);
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mtf[i] == 0) {
      ++run;
      continue;
    }
    emit_zero_run(run, &out);
    run = 0;
    out.push_back(static_cast<std::uint16_t>(mtf[i]) + 1);
  }
  emit_zero_run(run, &out);
  out.push_back(kEob);
  return out;
}

namespace {
/// Walk a ZRLE stream, calling emit(byte, count) for each literal and zero
/// run. Returns false on a malformed stream, before emitting anything past
/// `limit` bytes.
template <class Emit>
bool zrle_walk(const std::uint16_t* symbols, std::size_t n, std::size_t limit,
               Emit&& emit) {
  std::size_t room = limit;  // bytes the stream may still produce
  std::size_t run = 0;
  std::size_t mult = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t s = symbols[i];
    if (s == kRunA || s == kRunB) {
      // A run stops at the limit before anything is emitted for it.
      // mult <= run + 1 <= room + 1, so the digit cannot overflow.
      const std::size_t digit = s == kRunA ? mult : 2 * mult;
      if (digit > room - run) return false;
      run += digit;
      mult *= 2;
      continue;
    }
    if (run > 0) emit(std::uint8_t{0}, run);
    room -= run;
    run = 0;
    mult = 1;
    if (s == kEob) return i + 1 == n;  // EOB must be the final symbol
    if (s > 256 || room == 0) return false;
    emit(static_cast<std::uint8_t>(s - 1), std::size_t{1});
    --room;
  }
  return false;  // missing EOB
}
}  // namespace

bool zrle_decode(const std::uint16_t* symbols, std::size_t n, std::size_t limit,
                 std::vector<std::uint8_t>* out) {
  // Size the output from the stream first, so that what is allocated is what
  // the stream decodes to, whatever `limit` a block declares.
  std::size_t total = 0;
  if (!zrle_walk(symbols, n, limit,
                 [&](std::uint8_t, std::size_t count) { total += count; }))
    return false;
  const std::size_t base = out->size();
  out->resize(base + total);  // zero-filled: the runs are already in place
  std::uint8_t* dst = out->data() + base;
  zrle_walk(symbols, n, limit, [&](std::uint8_t b, std::size_t count) {
    *dst = b;
    dst += count;
  });
  return true;
}

}  // namespace tle::bzip
