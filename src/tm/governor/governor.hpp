// The contention governor — the control plane between the retry loop
// (api.hpp) and the engine.
//
// Three cooperating mechanisms (docs/tm-internals.md, "Contention
// management & graceful degradation"):
//
//  1. Cause-aware retry policy. The flat "attempts >= limit -> serial" rule
//     treats a capacity overflow (retrying is futile), a held serial lock
//     (retrying against it is the lemming effect), and a data conflict
//     (backoff genuinely helps) identically. on_abort() instead maps each
//     AbortCause to a Disposition: Capacity/Unsafe go serial at once,
//     SerialPending waits for the serial window to drain WITHOUT consuming
//     retry budget, Conflict/Validation keep randomized exponential
//     backoff, Spurious retries immediately. Per-section TxnAttrs can
//     override the table.
//
//  2. Abort-storm throttle. Per-thread attempt/abort windows fold into a
//     global estimate (no shared writes on the hot path); past
//     storm_on_rate the gate engages and admits only storm_tokens
//     concurrent speculators, releasing at storm_off_rate (hysteresis).
//
//  3. Starvation watchdog. A logical transaction aborted
//     watchdog_max_attempts times, or older than watchdog_deadline_ns since
//     its first abort, escalates to serial regardless of cause — the
//     progress guarantee the dispositions alone cannot give (an endless
//     drain/retry cycle is otherwise budget-neutral).
//
// Every retry goes through the governor. A cause-blind policy is a TxnAttrs
// table mapping every cause but Unsafe to one disposition, with the
// watchdog and the storm gate switched off through their knobs; the
// lemming-effect benchmark (bench/abl_htm_retry.cpp) measures the gap.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "tm/txdesc.hpp"

namespace tle::gov {

/// What the governor does with an abort of a given cause.
enum class Disposition : std::uint8_t {
  Inherit = 0,  ///< TxnAttrs only: defer to the global policy table
  Backoff,      ///< randomized exponential backoff; consumes retry budget
  Immediate,    ///< re-attempt at once; consumes retry budget
  Drain,        ///< wait for the serial window to clear; budget-free
  Serial,       ///< go irrevocable immediately
};

const char* to_string(Disposition d) noexcept;

/// Verdict of on_abort(): try again speculatively, or give up and go serial.
enum class Decision : std::uint8_t { Retry, Serial };

/// The built-in policy table (before TxnAttrs overrides).
Disposition default_disposition(AbortCause cause) noexcept;

/// Full post-abort policy: resolve the disposition (attr override or
/// default), run its wait (backoff / drain), account budget, fold the abort
/// into the storm window, and apply the starvation watchdog. The caller owns
/// serial_fallbacks/htm_retries accounting for the returned decision.
Decision on_abort(TxDesc& tx);

namespace detail {
extern std::atomic<std::uint32_t> g_storm_active;
/// Slow path of admit(): wait at the engaged storm gate for a token.
bool admit_gated(TxDesc& tx);
/// Return a held admission token to the gate.
void release_token(TxDesc& tx) noexcept;
/// Fold this thread's window into the global estimate and run the
/// storm-state hysteresis evaluation.
void fold_window(TxDesc& tx) noexcept;
}  // namespace detail

/// True while the abort-storm gate is engaged.
inline bool storm_active() noexcept {
  return detail::g_storm_active.load(std::memory_order_relaxed) != 0;
}

/// Admission control before a speculative attempt. Returns false when the
/// watchdog decided the transaction starved at the gate and must run serial
/// instead. One relaxed load when no storm is active.
inline bool admit(TxDesc& tx) {
  if (tx.storm_token) return true;  // token persists across retries
  if (!storm_active()) return true;
  return detail::admit_gated(tx);
}

/// Release the storm token, if held. Safe to call on every exit path.
inline void release(TxDesc& tx) noexcept {
  if (tx.storm_token) detail::release_token(tx);
}

/// Account one finished speculative attempt in the storm window.
inline void note_attempt(TxDesc& tx, bool aborted) noexcept {
  ++tx.win_attempts;
  if (aborted) ++tx.win_aborts;
  const unsigned w = config().storm_window;
  if (tx.win_attempts >= (w ? w : 1u)) detail::fold_window(tx);
}

/// Commit-side hook: fold the successful attempt and return the token early
/// so the gate reopens as the storm subsides.
inline void on_commit(TxDesc& tx) noexcept {
  note_attempt(tx, false);
  release(tx);
}

/// Scope guard for run_transaction: guarantees a storm token is returned on
/// every exit (commit, serial escalation, or user exception).
class TokenGuard {
 public:
  explicit TokenGuard(TxDesc& tx) noexcept : tx_(tx) {}
  TokenGuard(const TokenGuard&) = delete;
  TokenGuard& operator=(const TokenGuard&) = delete;
  ~TokenGuard() { release(tx_); }

 private:
  TxDesc& tx_;
};

/// Current global abort-rate estimate (aborts/attempts over the folded
/// windows; 0 before any fold). Exposed for tests and the obs layer.
double abort_rate_estimate() noexcept;

/// Speculators currently holding a storm-gate admission token (0 whenever
/// the gate is disengaged). Live gauge for the metrics sampler.
unsigned storm_inflight() noexcept;

/// Reset the global storm state (estimate, gate, token count). Test-only:
/// not safe while transactions run. Per-thread windows reset with their
/// threads; tests that need exact window phase use fresh threads or a
/// storm_window larger than the workload.
void reset() noexcept;

/// Ranked per-site starvation report (watchdog escalations, gate waits,
/// drain waits) from the obs layer; empty string when profiling is off or
/// nothing starved. Implemented in obs/export.cpp.
std::string starvation_report();

}  // namespace tle::gov
