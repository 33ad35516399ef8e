#include "bzip/bwt.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace tle::bzip {

namespace {

// What a sa position holds, in the `mark` byte array.
constexpr std::uint8_t kInside = 0;   // a later member of a group
constexpr std::uint8_t kOpen = 1;     // the first of a group of two or more
constexpr std::uint8_t kSettled = 2;  // a rotation alone in its group

// rank[] of a settled rotation: no position, so it is never scattered.
constexpr std::uint32_t kAlone = 0xFFFFFFFFu;

}  // namespace

BwtResult bwt_forward(const std::uint8_t* data, std::size_t n) {
  BwtResult out;
  if (n == 0) return out;

  // One uninitialized workspace of five n-word arrays and n bytes (next
  // holds at least 2^16 words: the seed's bucket counts). sa: rotations
  // sorted by their first `len` bytes, in groups of equal prefixes. rank[i]:
  // sa position of the first rotation in i's group (so ranks order the
  // groups), or kAlone once i is settled. head[p]: for an open group
  // starting at p, its next free slot in a scatter; for a settled position
  // p, the end of a run of settled positions. next, key2: a round's new
  // order of the open groups and each entry's second key. mark[p]: kInside,
  // kOpen or kSettled.
  constexpr std::size_t kBuckets = 1u << 16;
  const std::size_t next_words = std::max(n, kBuckets);
  const auto work = std::make_unique_for_overwrite<std::uint32_t[]>(
      4 * n + next_words + (n + 3) / 4);
  std::uint32_t* sa = work.get();
  std::uint32_t* const rank = sa + n;
  std::uint32_t* const key2 = rank + n;
  std::uint32_t* const head = key2 + n;
  auto* const mark = reinterpret_cast<std::uint8_t*>(head + n);
  std::uint32_t* next = head + n + (n + 3) / 4;

  std::size_t open = n;  // rotations in groups of two or more
  // Record the group sa[begin, end) of ranked rotations. A settled rotation
  // is written to both buffers, so swapping them never moves it.
  auto close = [&](std::size_t begin, std::size_t end) {
    const bool alone = end - begin == 1;
    mark[begin] = alone ? kSettled : kOpen;
    head[begin] = static_cast<std::uint32_t>(alone ? end : begin);
    next[begin] = sa[begin];
    rank[sa[begin]] = alone ? kAlone : static_cast<std::uint32_t>(begin);
    open -= alone;
  };

  // Seed: bucket sort by the first two bytes, ascending index within a bucket.
  {
    std::uint32_t* const bucket = next;
    std::fill(bucket, bucket + kBuckets, 0u);
    auto pair_at = [&](std::size_t i) {
      return static_cast<std::uint32_t>(data[i]) << 8 |
             data[i + 1 < n ? i + 1 : 0];
    };
    for (std::size_t i = 0; i < n; ++i) ++bucket[pair_at(i)];
    std::uint32_t sum = 0;
    for (std::size_t c = 0; c < kBuckets; ++c) {
      const std::uint32_t t = bucket[c];
      bucket[c] = sum;
      sum += t;
    }
    for (std::size_t i = 0; i < n; ++i) rank[i] = bucket[pair_at(i)];
    for (std::size_t i = 0; i < n; ++i)
      sa[bucket[pair_at(i)]++] = static_cast<std::uint32_t>(i);
    // bucket[c] is now the end of bucket c: note each group's end at its
    // head, then close the groups once next no longer holds the counts.
    std::uint32_t begin = 0;
    for (std::size_t c = 0; c < kBuckets; ++c) {
      if (bucket[c] > begin) head[begin] = bucket[c];
      begin = bucket[c];
    }
  }
  std::memset(mark, kInside, n);
  for (std::size_t p = 0; p < n;) {
    const std::size_t end = head[p];
    close(p, end);
    p = end;
  }

  // Doubling (Manber–Myers): rotation i's second half is rotation i + len,
  // so walking sa and stepping each rotation back by len lists the rotations
  // in second-key order. One stable counting pass by rank then sorts them by
  // (rank[i], rank[i + len]), i.e. by their first 2 * len bytes. A settled
  // rotation keeps its place, so it is neither scattered nor re-ranked; the
  // re-rank walks only the open groups, jumping over runs of settled ones
  // (Larsson and Sadakane, "Faster suffix sorting").
  for (std::size_t len = 2; open > 0 && len < n; len *= 2) {
    std::uint32_t second = 0;  // group of sa[p]: the second key of sa[p] - len
    for (std::size_t p = 0; p < n; ++p) {
      if (mark[p] != kInside) second = static_cast<std::uint32_t>(p);
      const std::uint32_t j = sa[p];
      const auto i =
          static_cast<std::uint32_t>(j >= len ? j - len : j + n - len);
      const std::uint32_t r = rank[i];
      if (r == kAlone) continue;
      const std::uint32_t q = head[r]++;
      next[q] = i;
      key2[q] = second;
    }
    std::swap(sa, next);
    // Re-rank: within an open group, a new group begins where the second
    // key changes.
    std::size_t splits = 0;
    for (std::size_t p = 0; p < n;) {
      if (mark[p] == kSettled) {  // jump the run, joining the runs after it
        const std::size_t run = p;
        while (p < n && mark[p] == kSettled) p = head[p];
        head[run] = static_cast<std::uint32_t>(p);
        continue;
      }
      const std::size_t end = head[p];  // the scatter filled the group
      auto first = static_cast<std::uint32_t>(p);
      std::uint32_t key = key2[p];
      for (std::size_t q = p; q < end; ++q) {
        if (key2[q] != key) {
          close(first, q);
          first = static_cast<std::uint32_t>(q);
          key = key2[q];
          ++splits;
        }
        rank[sa[q]] = first;
      }
      close(first, end);
      p = end;
    }
    // If no group split, sorting by 2 * len bytes grouped the rotations as
    // len bytes did, so every longer prefix will too: the groups left hold
    // equal rotations.
    if (splits == 0) break;
  }

  // Groups left now hold equal rotations (periodic input): order each one by
  // start index.
  for (std::size_t p = 0; open > 0 && p < n;) {
    if (mark[p] == kSettled) {
      p = head[p];
      continue;
    }
    std::size_t end = p + 1;
    while (end < n && mark[end] == kInside) ++end;
    std::sort(sa + p, sa + end);
    open -= end - p;
    p = end;
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
