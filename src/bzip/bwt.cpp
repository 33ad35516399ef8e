#include "bzip/bwt.hpp"

#include <algorithm>

namespace tle::bzip {

BwtResult bwt_forward(const std::uint8_t* data, std::size_t n) {
  BwtResult out;
  if (n == 0) return out;

  // sa: rotations sorted by their first `len` bytes, in groups of equal
  // prefixes. rank[i]: sa position of the first rotation in i's group, so
  // ranks order the groups and each group's rank is also its bucket head.
  // start[p] != 0: a group begins at sa position p.
  std::vector<std::uint32_t> sa(n), next(n), key2(n), rank(n), head(n);
  std::vector<std::uint8_t> start(n);

  // Seed: bucket sort by the first two bytes, ascending index within a bucket.
  {
    std::vector<std::uint32_t> bucket(1u << 16, 0);
    auto pair_at = [&](std::size_t i) {
      return static_cast<std::uint32_t>(data[i]) << 8 |
             data[i + 1 < n ? i + 1 : 0];
    };
    for (std::size_t i = 0; i < n; ++i) ++bucket[pair_at(i)];
    std::uint32_t sum = 0;
    for (auto& b : bucket) {
      const std::uint32_t t = b;
      b = sum;
      sum += t;
    }
    for (std::size_t i = 0; i < n; ++i) rank[i] = bucket[pair_at(i)];
    for (std::size_t i = 0; i < n; ++i)
      sa[bucket[pair_at(i)]++] = static_cast<std::uint32_t>(i);
  }
  std::size_t groups = 0;
  for (std::size_t p = 0; p < n; ++p) {
    start[p] = rank[sa[p]] == p;
    groups += start[p];
    head[p] = static_cast<std::uint32_t>(p);
  }

  // Doubling (Manber–Myers): rotation i's second half is rotation i + len,
  // so walking sa and stepping each rotation back by len lists the rotations
  // in second-key order. One stable counting pass by rank then sorts them by
  // (rank[i], rank[i + len]), i.e. by their first 2 * len bytes.
  for (std::size_t len = 2; groups < n && len < n; len *= 2) {
    std::uint32_t second = 0;  // rank[sa[p]]: the second key of sa[p] - len
    for (std::size_t p = 0; p < n; ++p) {
      if (start[p]) second = static_cast<std::uint32_t>(p);
      const std::uint32_t j = sa[p];
      const auto i =
          static_cast<std::uint32_t>(j >= len ? j - len : j + n - len);
      const std::uint32_t q = head[rank[i]]++;
      next[q] = i;
      key2[q] = second;
    }
    // Re-rank: within an old group, a new group begins where the second key
    // changes. start[0] is always set, so key2[p - 1] is never read at p = 0.
    std::uint32_t first = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (start[p] || key2[p] != key2[p - 1]) {
        groups += !start[p];
        start[p] = 1;
        first = static_cast<std::uint32_t>(p);
        head[p] = first;
      }
      rank[next[p]] = first;
    }
    sa.swap(next);
  }

  // Groups left now hold equal rotations (periodic input): order each one by
  // start index.
  if (groups < n) {
    for (std::size_t p = 0; p < n;) {
      std::size_t q = p + 1;
      while (q < n && !start[q]) ++q;
      std::sort(sa.begin() + static_cast<std::ptrdiff_t>(p),
                sa.begin() + static_cast<std::ptrdiff_t>(q));
      p = q;
    }
  }

  out.last_column.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t s = sa[j];
    out.last_column[j] = data[s == 0 ? n - 1 : s - 1];
    if (s == 0) out.primary_index = static_cast<std::uint32_t>(j);
  }
  return out;
}

std::vector<std::uint8_t> bwt_inverse(const std::uint8_t* last_column,
                                      std::size_t n,
                                      std::uint32_t primary_index) {
  std::vector<std::uint8_t> out;
  if (n == 0) return out;
  // base[c]: first row of the sorted (first) column holding byte c.
  std::uint32_t counts[256] = {};
  for (std::size_t j = 0; j < n; ++j) ++counts[last_column[j]];
  std::uint32_t base[256];
  std::uint32_t sum = 0;
  for (int c = 0; c < 256; ++c) {
    base[c] = sum;
    sum += counts[c];
  }
  // tt[f] = row of the last column that maps to first-column position f.
  std::vector<std::uint32_t> tt(n);
  for (std::size_t j = 0; j < n; ++j) tt[base[last_column[j]]++] = static_cast<std::uint32_t>(j);

  out.resize(n);
  std::uint32_t p = tt[primary_index];
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = last_column[p];
    p = tt[p];
  }
  return out;
}

}  // namespace tle::bzip
