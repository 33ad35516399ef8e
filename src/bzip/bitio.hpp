// Bit-granular I/O over byte buffers, MSB-first (as in bzip2's format).
#pragma once

#include <cstdint>
#include <vector>

namespace tle::bzip {

class BitWriter {
 public:
  /// Append the low `nbits` of `value`, MSB first. nbits in [0, 57].
  void put(std::uint64_t value, unsigned nbits) {
    acc_ = (acc_ << nbits) | (value & ((nbits >= 64 ? 0 : (1ULL << nbits)) - 1));
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      out_.push_back(static_cast<std::uint8_t>(acc_ >> fill_));
    }
  }

  /// Pad with zero bits to a byte boundary and return the buffer.
  std::vector<std::uint8_t> finish() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - fill_)));
      fill_ = 0;
    }
    acc_ = 0;
    return std::move(out_);
  }

  std::size_t bit_count() const noexcept { return out_.size() * 8 + fill_; }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Read `nbits` (MSB first). Returns false on underrun.
  bool get(unsigned nbits, std::uint64_t* out) {
    while (fill_ < nbits) {
      if (pos_ >= size_) return false;
      acc_ = (acc_ << 8) | data_[pos_++];
      fill_ += 8;
    }
    fill_ -= nbits;
    *out = (acc_ >> fill_) & ((nbits >= 64 ? 0 : (1ULL << nbits)) - 1);
    return true;
  }

  /// Read a single bit; -1 on underrun.
  int get_bit() {
    std::uint64_t v;
    return get(1, &v) ? static_cast<int>(v) : -1;
  }

  /// The next `nbits` bits (nbits in [1, 32]) without consuming them; bits
  /// past the end of the data read as zeros.
  std::uint32_t peek(unsigned nbits) {
    while (fill_ <= 56 && pos_ < size_) {
      acc_ = (acc_ << 8) | data_[pos_++];
      fill_ += 8;
    }
    const std::uint64_t bits =
        fill_ >= nbits ? acc_ >> (fill_ - nbits) : acc_ << (nbits - fill_);
    return static_cast<std::uint32_t>(bits & ((1ULL << nbits) - 1));
  }

  /// Consume `nbits` bits of the last peek; nbits <= bits_left().
  void skip(unsigned nbits) noexcept { fill_ -= nbits; }

  std::size_t bits_left() const noexcept { return (size_ - pos_) * 8 + fill_; }

  std::size_t bits_consumed() const noexcept { return pos_ * 8 - fill_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

}  // namespace tle::bzip
