// Log2-bucketed latency histogram for the per-site profiler.
//
// Bucket b counts samples in [2^b, 2^(b+1)) nanoseconds, except bucket 0
// which also absorbs 0 ns (so buckets 0..31 cover 0 ns to >= 2.1 s). Only
// the owning thread adds, through owner_add() (a relaxed load and store); an
// aggregator may read the buckets concurrently — same contract as TxStats.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

#include "tm/stats.hpp"

namespace tle::obs {

struct LatencyHist {
  static constexpr int kBuckets = 32;

  std::atomic<std::uint64_t> buckets[kBuckets] = {};

  /// floor(log2(ns)), clamped: 0/1 ns -> 0, >= 2^31 ns -> 31.
  static int bucket_of(std::uint64_t ns) noexcept {
    if (ns < 2) return 0;
    const int b = std::bit_width(ns) - 1;
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Lower bound of bucket b in nanoseconds (bucket 0 starts at 0).
  static std::uint64_t bucket_floor(int b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << b);
  }

  /// Midpoint of bucket b: the single value the whole bucket is summarized
  /// as by percentile() below. Bucket b >= 1 spans [2^b, 2^(b+1)), midpoint
  /// 2^b + 2^(b-1); bucket 0 spans [0, 2) and reports 1.
  static std::uint64_t bucket_midpoint(int b) noexcept {
    return b == 0 ? 1
                  : (std::uint64_t{1} << b) + (std::uint64_t{1} << (b - 1));
  }

  void add(std::uint64_t ns) noexcept { owner_add(buckets[bucket_of(ns)]); }

  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto& b : buckets) t += b.load(std::memory_order_relaxed);
    return t;
  }
};

/// Approximate q-quantile (q in [0,1]) of a log2 histogram given as a plain
/// bucket-count array of LatencyHist::kBuckets entries.
///
/// Bucket-midpoint rule (the one documented external contract — the C++
/// exports and scripts/summarize_bench.py both implement exactly this):
/// walk buckets in ascending order accumulating counts; the first bucket b
/// whose cumulative count reaches q * total contains the quantile, and the
/// estimate returned is bucket_midpoint(b). q <= 0 selects the first
/// non-empty bucket, q >= 1 the last. Returns 0 for an empty histogram.
inline std::uint64_t percentile_from_buckets(const std::uint64_t* buckets,
                                             double q) noexcept {
  std::uint64_t total = 0;
  for (int b = 0; b < LatencyHist::kBuckets; ++b) total += buckets[b];
  if (!total) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  int last = 0;
  for (int b = 0; b < LatencyHist::kBuckets; ++b) {
    if (!buckets[b]) continue;
    last = b;
    cum += buckets[b];
    if (static_cast<double>(cum) >= target)
      return LatencyHist::bucket_midpoint(b);
  }
  return LatencyHist::bucket_midpoint(last);
}

/// percentile_from_buckets over a live histogram (relaxed snapshot of the
/// bucket counts; same approximation contract as aggregation).
inline std::uint64_t percentile(const LatencyHist& h, double q) noexcept {
  std::uint64_t snap[LatencyHist::kBuckets];
  for (int b = 0; b < LatencyHist::kBuckets; ++b)
    snap[b] = h.buckets[b].load(std::memory_order_relaxed);
  return percentile_from_buckets(snap, q);
}

}  // namespace tle::obs
