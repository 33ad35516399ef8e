// The contention governor — the control plane between the retry loop
// (api.hpp) and the engine.
//
// Two cooperating mechanisms (docs/tm-internals.md, "Contention
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
//  2. Starvation watchdog. A logical transaction aborted
//     watchdog_max_attempts times, or older than watchdog_deadline_ns since
//     its first abort, escalates to serial regardless of cause — the
//     progress guarantee the dispositions alone cannot give (an endless
//     drain/retry cycle is otherwise budget-neutral).
//
// Every retry goes through the governor; a commit never touches it. A
// cause-blind policy is a TxnAttrs table mapping every cause but Unsafe to
// one disposition, with the watchdog switched off through its knobs; the
// lemming-effect benchmark (bench/abl_htm_retry.cpp) measures the gap.
#pragma once

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
/// default), run its wait (backoff / drain), account budget, and apply the
/// starvation watchdog. The caller owns serial_fallbacks/htm_retries
/// accounting for the returned decision.
Decision on_abort(TxDesc& tx);

/// Ranked per-site starvation report (watchdog escalations, drain waits)
/// from the obs layer; empty string when profiling is off or nothing
/// starved. Implemented in obs/export.cpp.
std::string starvation_report();

}  // namespace tle::gov
