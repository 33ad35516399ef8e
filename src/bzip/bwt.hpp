// Burrows–Wheeler transform over full cyclic rotations (as in bzip2).
#pragma once

#include <cstdint>
#include <vector>

namespace tle::bzip {

struct BwtResult {
  std::vector<std::uint8_t> last_column;
  std::uint32_t primary_index = 0;  ///< row of the original string
};

/// Forward transform: the rotations in cyclic lexicographic order, equal
/// rotations by ascending start index. O(n log n): a two-byte bucket sort,
/// then Manber–Myers prefix doubling, each round one stable counting pass
/// whose second-key order comes from the previous round's order. A rotation
/// alone in its group is settled and skipped from then on, and a round that
/// splits no group ends the doubling.
BwtResult bwt_forward(const std::uint8_t* data, std::size_t n);

/// Inverse transform.
std::vector<std::uint8_t> bwt_inverse(const std::uint8_t* last_column,
                                      std::size_t n,
                                      std::uint32_t primary_index);

}  // namespace tle::bzip
