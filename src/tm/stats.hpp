// Per-thread transaction statistics and the one counter table.
//
// These counters are the evidence stream for the reproduction: Figure 4 and
// the in-text Section VII-A numbers (transaction counts, abort percentages,
// HTM serial-fallback rates) are regenerated from them.
//
// TLE_COUNTERS below is the only declaration of a scalar counter. It
// generates the TxStats members, the StatsSnapshot mirror, reset(),
// aggregation (runtime.cpp), the tle-obs/v1 `stats` object and the
// Prometheus counters; its S rows also generate the per-site rows
// (obs/site.hpp) with their reset, aggregation, metrics deltas and the
// tle-obs/v1 `sites` objects. Events are counted with tle::count()
// (obs/site.hpp), which bumps the thread's row and, while profiling is on,
// the site's, so per-site sums equal the thread totals by construction.
//
// One writer per counter: only the thread that holds a slot counts into its
// rows, so an add is a relaxed load plus a relaxed store (owner_add), not a
// locked read-modify-write. Readers (aggregate_stats, the site collection)
// may load concurrently and see each value whole. Reset contract: no thread
// may count while reset_stats() runs; an add racing a reset can write back
// its pre-reset value.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "tm/config.hpp"

namespace tle {

/// The counter table, one row per scalar counter:
///   G(name, "description")            counted per thread only;
///   S(name, site, pos, "description") also counted per TLE_TX_SITE, as
///       `site` in the site row; `pos` is its key position in a tle-obs/v1
///       site object, whose published key order differs from table order.
/// The per-cause abort array is the one deliberate non-member of this table
/// (it is indexed by AbortCause and handled explicitly wherever the table is
/// expanded).
#define TLE_COUNTERS(G, S)                                                    \
  S(txn_starts, attempts, 0, "speculative attempts begun")                    \
  S(commits, commits, 1, "speculative commits")                               \
  G(commits_readonly, "subset of commits with empty write set")               \
  S(serial_fallbacks, serial_fallbacks, 2,                                    \
    "attempts that gave up and went serial")                                  \
  S(serial_commits, serial_commits, 3,                                        \
    "irrevocable/serial executions completed")                                \
  S(lock_sections, lock_sections, 4,                                          \
    "critical sections run under the real lock")                              \
  G(quiesce_calls, "post-commit quiescence operations performed")             \
  S(quiesce_waits, quiesce_waits, 6,                                          \
    "quiescence calls that actually blocked")                                 \
  G(quiesce_spins, "spin iterations spent waiting in quiescence")             \
  G(quiesce_wait_ns, "nanoseconds spent blocked in quiescence")               \
  G(grace_scans, "grace passes this thread scanned itself")                   \
  G(grace_shared, "quiesces satisfied by another thread's scan")              \
  G(parked_waits, "futex parks after the bounded quiesce spin")               \
  G(limbo_enqueued, "free batches deferred to the limbo list")                \
  G(limbo_drained, "limbo batches released after a grace")                    \
  G(limbo_forced_flush, "drains forced by the limbo size bound")              \
  G(noquiesce_requests, "TM_NoQuiesce() invocations")                         \
  G(noquiesce_honored, "commits that skipped quiescence")                     \
  G(noquiesce_ignored_nested, "calls ignored: nested txn (SIV-B)")            \
  G(noquiesce_ignored_free, "skips denied: txn freed memory")                 \
  S(htm_routed_frees, htm_routed_frees, 12,                                   \
    "always 0: serial exits drain HTM readers (kept for perfbench)")          \
  G(priv_immediate_frees, "tm_private_free released immediately")             \
  S(priv_limbo_routed, priv_limbo_routed, 13,                                 \
    "tm_private_free routed through limbo")                                   \
  S(audit_hazard_arms, audit_hazard_arms, 14,                                 \
    "privatization hazards armed by unquiesced commits")                      \
  G(tm_allocs, "transactional allocations")                                   \
  G(tm_frees, "transactional frees")                                          \
  G(deferred_run, "deferred actions executed post-commit")                    \
  G(condvar_waits, "transactional condvar waits")                             \
  G(condvar_timeouts, "transactional condvar timed waits that expired")       \
  S(htm_retries, htm_retries, 5, "HTM re-attempts after an abort")            \
  G(htm_read_dedup, "HTM repeat reads served from the value log")             \
  G(htm_rw_hits, "HTM reads served from the write buffer")                    \
  S(stripe_bumps, stripe_bumps, 10,                                           \
    "commit-sequence stripes acquired by HTM commits")                        \
  S(stripe_false_revalidations, stripe_false_revalidations, 11,               \
    "stripe revalidations with no value change")                              \
  G(faults_injected, "aborts fired by the fault-injection plan")              \
  G(fault_delays, "schedule perturbations executed by the plan")              \
  G(fault_forced_serial, "serial-mode entries forced by the plan")            \
  G(fault_forced_flush, "limbo flushes forced by the plan")                   \
  G(gov_serial_immediate, "aborts escalated straight to serial by policy")    \
  G(gov_backoffs, "aborts handled with randomized exponential backoff")       \
  G(gov_immediate_retries, "aborts retried immediately (spurious policy)")    \
  S(gov_drain_waits, drain_waits, 7,                                          \
    "serial-pending drains awaited without budget burn")                      \
  G(gov_drain_timeouts, "drain waits that hit serial_drain_timeout_ns")       \
  S(gov_storm_gated, storm_gated, 8,                                          \
    "always 0: the storm gate is gone (kept for perfbench)")                  \
  S(gov_watchdog_escalations, watchdog_escalations, 9,                        \
    "starving transactions escalated to serial")                              \
  G(gov_stall_events, "quiesce/drain stalls exceeding watchdog_stall_ns")     \
  G(obs_site_overflow, "TLE_TX_SITE registrations folded into id 0: full")

/// Expansion for the row kind a use of TLE_COUNTERS leaves out.
#define TLE_COUNTER_SKIP(...)

/// One id per counter, in table order: the `counter` argument of count().
enum class Ctr : std::uint8_t {
#define TLE_CTR_ID(name, ...) name,
  TLE_COUNTERS(TLE_CTR_ID, TLE_CTR_ID)
#undef TLE_CTR_ID
};

#define TLE_COUNT_ONE(...) +1
/// Number of scalar counters in the table (excludes the abort array).
inline constexpr int kTxStatsCounterCount =
    0 TLE_COUNTERS(TLE_COUNT_ONE, TLE_COUNT_ONE);
/// Number of counters with a per-site row (the S rows).
inline constexpr int kSiteCounterCount =
    0 TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_COUNT_ONE);
#undef TLE_COUNT_ONE

inline constexpr int kAbortCauseCount = static_cast<int>(AbortCause::kCount);

/// Add `n` to a counter that only the calling thread writes: a relaxed load
/// and store, so the hot path pays no locked instruction.
inline void owner_add(std::atomic<std::uint64_t>& c,
                      std::uint64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Counters owned by one thread (the slot's holder, their only writer);
/// atomic so an aggregator may read them concurrently without UB.
struct TxStats {
  using Counter = std::atomic<std::uint64_t>;

#define TLE_TXSTATS_DECL(name, ...) Counter name{0};
  TLE_COUNTERS(TLE_TXSTATS_DECL, TLE_TXSTATS_DECL)
#undef TLE_TXSTATS_DECL

  Counter aborts[kAbortCauseCount] = {};  ///< speculative aborts by cause

  /// The member for each counter, indexed by Ctr.
  static constexpr Counter TxStats::* kMembers[] = {
#define TLE_TXSTATS_MEMBER(name, ...) &TxStats::name,
      TLE_COUNTERS(TLE_TXSTATS_MEMBER, TLE_TXSTATS_MEMBER)
#undef TLE_TXSTATS_MEMBER
  };

  /// The member for `c`; a constant `c` folds to a fixed offset.
  Counter& at(Ctr c) noexcept { return this->*kMembers[static_cast<int>(c)]; }

  void reset() noexcept {
    auto zero = [](Counter& c) { c.store(0, std::memory_order_relaxed); };
#define TLE_TXSTATS_ZERO(name, ...) zero(name);
    TLE_COUNTERS(TLE_TXSTATS_ZERO, TLE_TXSTATS_ZERO)
#undef TLE_TXSTATS_ZERO
    for (auto& a : aborts) zero(a);
  }

  void bump(Counter& c, std::uint64_t n = 1) noexcept { owner_add(c, n); }

  /// Visit every scalar counter as f(name, atomic&); the abort array is not
  /// included. Used by tests to prove aggregation covers every field.
  template <typename F>
  void for_each_counter(F&& f) {
#define TLE_TXSTATS_VISIT(name, ...) f(#name, name);
    TLE_COUNTERS(TLE_TXSTATS_VISIT, TLE_TXSTATS_VISIT)
#undef TLE_TXSTATS_VISIT
  }
};

/// Plain-value aggregate of every live thread's TxStats.
struct StatsSnapshot {
#define TLE_TXSTATS_DECL(name, ...) std::uint64_t name = 0;
  TLE_COUNTERS(TLE_TXSTATS_DECL, TLE_TXSTATS_DECL)
#undef TLE_TXSTATS_DECL

  std::uint64_t aborts[kAbortCauseCount] = {};

  std::uint64_t aborts_total() const noexcept {
    std::uint64_t t = 0;
    for (auto a : aborts) t += a;
    return t;
  }

  /// Fraction of speculative attempts that aborted (0 when none started).
  double abort_rate() const noexcept {
    return txn_starts ? static_cast<double>(aborts_total()) /
                            static_cast<double>(txn_starts)
                      : 0.0;
  }

  /// Fraction of logical transactions whose final execution was serial.
  double serial_fraction() const noexcept {
    const std::uint64_t logical = commits + serial_commits;
    return logical ? static_cast<double>(serial_commits) /
                         static_cast<double>(logical)
                   : 0.0;
  }

  /// Visit every scalar counter as f(name, value, description); the abort
  /// array is exported separately, keyed by cause name.
  template <typename F>
  void for_each_counter(F&& f) const {
#define TLE_TXSTATS_VISIT_G(name, desc) f(#name, name, desc);
#define TLE_TXSTATS_VISIT_S(name, site, pos, desc) f(#name, name, desc);
    TLE_COUNTERS(TLE_TXSTATS_VISIT_G, TLE_TXSTATS_VISIT_S)
#undef TLE_TXSTATS_VISIT_G
#undef TLE_TXSTATS_VISIT_S
  }

  /// Multi-line human-readable report.
  std::string report() const;
};

// A counter added to StatsSnapshot outside the table (or an AbortCause
// added without growing the array) trips this: the snapshot must be exactly
// the table-generated scalars plus the per-cause abort array.
static_assert(sizeof(StatsSnapshot) ==
                  sizeof(std::uint64_t) *
                      (kTxStatsCounterCount + kAbortCauseCount),
              "StatsSnapshot has fields not generated by TLE_COUNTERS; "
              "add them to the table so aggregation and the obs exports "
              "stay complete");

/// Sum the counters of every registered thread (safe while threads run; the
/// result is then approximate, exact at barriers).
StatsSnapshot aggregate_stats() noexcept;

/// Zero every registered thread's counters. No thread may count while it
/// runs (see "One writer per counter" above).
void reset_stats() noexcept;

}  // namespace tle
