// Shared speculative metadata: the global version clock and the
// ownership-record (orec) table of the STM, ml_wt (multiple locks,
// write-through) — the GCC libitm default the paper's STM numbers use,
// itself "a privatization-safe version of TinySTM" — and the striped commit
// sequence of the simulated HTM (second half of this file).
//
// Orec encoding (64-bit word):
//   bit 0        lock bit
//   if locked:   bits 63..1 = owning TxDesc* >> 1 (descriptors are 8-aligned)
//   if unlocked: bits 63..12 = commit timestamp, bits 11..1 = incarnation
//
// The incarnation counter is bumped when an aborting owner releases the orec
// after undoing its in-place writes; it prevents the ABA where a reader's
// pre/post orec check would otherwise accept a value observed mid-speculation
// (TinySTM's scheme; the 11-bit wrap is harmless because it would need 2048
// aborts on one orec inside a single reader's two-instruction window).
#pragma once

#include <atomic>
#include <cstdint>

#include "tm/config.hpp"
#include "util/align.hpp"

namespace tle {

struct TxDesc;  // defined in txdesc.hpp

inline constexpr unsigned kOrecBits = 16;  // 65536 orecs (libitm uses 2^19 B)
inline constexpr std::size_t kOrecCount = std::size_t{1} << kOrecBits;

inline constexpr std::uint64_t kOrecLockBit = 1;
inline constexpr unsigned kIncarnationBits = 11;
inline constexpr std::uint64_t kIncarnationMask =
    ((std::uint64_t{1} << kIncarnationBits) - 1) << 1;

constexpr bool orec_locked(std::uint64_t v) noexcept { return v & kOrecLockBit; }

inline TxDesc* orec_owner(std::uint64_t v) noexcept {
  // Descriptors are at least 8-aligned, so clearing the lock bit suffices.
  return reinterpret_cast<TxDesc*>(v & ~kOrecLockBit);
}

inline std::uint64_t orec_lockword(const TxDesc* owner) noexcept {
  return reinterpret_cast<std::uint64_t>(owner) | kOrecLockBit;
}

constexpr std::uint64_t orec_timestamp(std::uint64_t v) noexcept {
  return v >> (kIncarnationBits + 1);
}

constexpr std::uint64_t orec_make(std::uint64_t ts, std::uint64_t inc) noexcept {
  return (ts << (kIncarnationBits + 1)) |
         ((inc << 1) & kIncarnationMask);
}

constexpr std::uint64_t orec_incarnation(std::uint64_t v) noexcept {
  return (v & kIncarnationMask) >> 1;
}

/// Unlocked word for a *committing* release at timestamp `wv`, keeping the
/// previous incarnation.
constexpr std::uint64_t orec_commit_release(std::uint64_t prev,
                                            std::uint64_t wv) noexcept {
  return orec_make(wv, orec_incarnation(prev));
}

/// Unlocked word for an *aborting* release: same timestamp, incarnation + 1.
constexpr std::uint64_t orec_abort_release(std::uint64_t prev) noexcept {
  return orec_make(orec_timestamp(prev), orec_incarnation(prev) + 1);
}

namespace detail {
struct alignas(kCacheLine) GlobalClock {
  std::atomic<std::uint64_t> value{1};
};
inline constinit GlobalClock g_clock;

/// The orec table. Static storage: 64K * 8 B = 512 KB, matching the order
/// of libitm's table.
inline constinit std::atomic<std::uint64_t> g_orecs[kOrecCount];
}  // namespace detail

/// The global commit timestamp clock.
inline std::atomic<std::uint64_t>& gclock() noexcept {
  return detail::g_clock.value;
}

/// The orec protecting `addr`. Word-granular mapping with a Fibonacci mix:
/// consecutive words map to distinct orecs so adjacent fields of a node do
/// not gratuitously conflict.
inline std::atomic<std::uint64_t>& orec_for(const void* addr) noexcept {
  const std::uintptr_t word = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  return detail::g_orecs[(word * 0x9E3779B97F4A7C15ULL) >> (64 - kOrecBits)];
}

// ---------------------------------------------------------------------------
// Simulated-HTM striped commit sequence
//
// The NOrec-style commit word, sharded: each stripe is an independent
// seqlock (even = stable, odd = a committer is writing back). A committer
// bumps only the stripes its write set touches, acquired in ascending index
// order; readers snapshot stripes lazily as their footprint grows and
// revalidate only entries whose stripe moved. Stripe selection applies the
// orec_for Fibonacci mix at *block* granularity (2^kHtmStripeBlockShift
// bytes): a contiguous working set lands on a handful of stripes — so a
// small transaction's commit bumps one or two sequence words, close to the
// old single-CAS cost — while separate threads' buffers hash to different
// stripes, which is where the commit scalability comes from. Word-granular
// hashing would instead spray every footprint across the whole table,
// making each commit pay O(stripes) acquisitions for zero isolation gain.
// config().htm_seq_stripes (a power of two <= kHtmStripeMax) sets how many
// stripes are live; 1 reproduces the old single-sequence protocol.
// ---------------------------------------------------------------------------

inline constexpr unsigned kHtmStripeMax = 64;

/// Stripe granularity: addresses within the same 2^9 = 512-byte block share
/// a stripe (64 tm_var words — spatial false sharing at the same scale as a
/// handful of cache lines, the natural unit of a thread's working set).
inline constexpr unsigned kHtmStripeBlockShift = 9;

namespace detail {
/// One padded seqlock word per stripe, so disjoint-footprint committers
/// never share a cache line.
struct alignas(kCacheLine) HtmSeqStripe {
  std::atomic<std::uint64_t> value{0};
};
inline constinit HtmSeqStripe g_htm_stripes[kHtmStripeMax];
}  // namespace detail

/// Stripe index for `addr` under the current htm_seq_stripes setting: the
/// orec_for mix at block granularity, so addresses in one 512-byte block
/// share a stripe and distinct blocks scatter uniformly (see above).
inline unsigned htm_stripe_index(const void* addr) noexcept {
  const std::uintptr_t block =
      reinterpret_cast<std::uintptr_t>(addr) >> kHtmStripeBlockShift;
  const std::uint64_t mixed = block * 0x9E3779B97F4A7C15ULL;
  return static_cast<unsigned>(mixed >> 48) & (config().htm_seq_stripes - 1);
}

/// The sequence word of stripe `i` (i < config().htm_seq_stripes).
inline std::atomic<std::uint64_t>& htm_stripe_seq(unsigned i) noexcept {
  return detail::g_htm_stripes[i].value;
}

}  // namespace tle
