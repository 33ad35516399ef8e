// Lightweight TM event tracing — the flight recorder.
//
// When enabled, the engine emits begin/commit/abort/serial/quiesce events
// into fixed-size per-thread rings (owner-only stores, no shared
// contention). Each record carries the transaction's TxSite id, retry
// number, read/write-set sizes, and interval duration, so the exporter
// (tm/obs/export.hpp) can turn a snapshot into a Chrome-trace/Perfetto
// timeline with one track per thread slot.
//
// Records are guarded by a per-cell sequence lock: emit() never blocks and
// snapshot() is safe (and TSan-clean) while writers are live — a reader
// that races an overwrite simply discards that cell. reset() retires the
// currently visible records by advancing a per-ring floor watermark instead
// of rewinding the write cursor, so it too is safe against concurrent
// emitters. Zero overhead when disabled (one relaxed flag load per event
// site, shared with the per-site profiler).
#pragma once

#include <cstdint>
#include <vector>

#include "tm/config.hpp"

namespace tle::trace {

enum class Event : std::uint8_t {
  Begin,        ///< speculative attempt started
  Commit,       ///< speculative commit
  Abort,        ///< speculative abort (cause recorded)
  SerialEnter,  ///< irrevocable execution began
  SerialExit,   ///< irrevocable execution finished
  Quiesce,      ///< post-commit quiescence performed
  StormEnter,   ///< governor: abort-storm gate engaged
  StormExit,    ///< governor: abort-storm gate released
  WatchdogEscalate,  ///< governor: starvation escalation or detected stall
                     ///< (dur_ns carries the stall length for stalls)
  StripeRevalidate,  ///< HTM: a subscribed commit stripe moved and was
                     ///< value-revalidated (rset carries the stripe index)
};

const char* to_string(Event e) noexcept;

struct Record {
  std::uint64_t ts_ns;   ///< steady-clock timestamp (end of the interval)
  std::uint64_t dur_ns;  ///< interval length; 0 for Begin/SerialEnter
  std::uint32_t rset;    ///< read-set size at the event (Commit/Abort)
  std::uint32_t wset;    ///< write-set size at the event (Commit/Abort)
  std::uint16_t slot;    ///< thread slot id
  std::uint16_t site;    ///< obs::TxSite id (0 = unnamed section)
  std::uint16_t retry;   ///< attempt number within the logical txn (0-based)
  Event event;
  AbortCause cause;  ///< meaningful for Abort
};

/// Global on/off switch (off by default).
void enable(bool on) noexcept;
bool enabled() noexcept;

/// Engine hook: record an event for the calling thread.
void emit(Event e, AbortCause cause = AbortCause::None, std::uint16_t site = 0,
          std::uint16_t retry = 0, std::uint32_t rset = 0,
          std::uint32_t wset = 0, std::uint64_t dur_ns = 0) noexcept;

/// Merge every thread's ring into one timestamp-sorted vector. Each ring
/// holds the most recent kRingSize events; older ones are overwritten.
/// Cells being overwritten during the copy are skipped, not torn.
std::vector<Record> snapshot();

/// Drop all currently recorded events (concurrent emitters keep going).
void reset() noexcept;

inline constexpr std::size_t kRingSize = 4096;

}  // namespace tle::trace
