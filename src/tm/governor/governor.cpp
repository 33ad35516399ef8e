#include "tm/governor/governor.hpp"

#include <thread>

#include "tm/fault/fault.hpp"
#include "tm/obs/site.hpp"
#include "tm/serial_lock.hpp"
#include "tm/trace.hpp"
#include "util/align.hpp"
#include "util/timing.hpp"

namespace tle::gov {

namespace {

// Global abort-rate window. Threads fold their private counters in every
// storm_window attempts, so the hot path never writes shared state; the
// folding thread runs the hysteresis evaluation. The window slides by
// subtraction: once it holds 4 windows' worth of attempts, one thread
// retires the prefix it observed (its own snapshot, so the counters never
// underflow under concurrent folds).
struct alignas(kCacheLine) StormWindow {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint32_t> rotating{0};
};
StormWindow g_window;

/// Speculators currently admitted through an engaged gate.
alignas(kCacheLine) std::atomic<std::uint32_t> g_inflight{0};

bool watchdog_expired(const TxDesc& tx, const RuntimeConfig& cfg) noexcept {
  if (cfg.watchdog_max_attempts != 0 &&
      tx.attempts >= cfg.watchdog_max_attempts)
    return true;
  if (cfg.watchdog_deadline_ns != 0 && tx.txn_start_ns != 0 &&
      now_ns() - tx.txn_start_ns >= cfg.watchdog_deadline_ns)
    return true;
  return false;
}

Decision escalate(TxDesc& tx) {
  const std::uint32_t ob = obs::flags();
  count(tx, Ctr::gov_watchdog_escalations, 1, ob);
  if (ob & obs::kTraceBit)
    trace::emit(trace::Event::WatchdogEscalate, tx.last_abort, tx.site,
                static_cast<std::uint16_t>(tx.attempts));
  return Decision::Serial;
}

}  // namespace

namespace detail {

std::atomic<std::uint32_t> g_storm_active{0};

void fold_window(TxDesc& tx) noexcept {
  const std::uint64_t a =
      g_window.attempts.fetch_add(tx.win_attempts,
                                  std::memory_order_relaxed) +
      tx.win_attempts;
  const std::uint64_t b =
      g_window.aborts.fetch_add(tx.win_aborts, std::memory_order_relaxed) +
      tx.win_aborts;
  tx.win_attempts = 0;
  tx.win_aborts = 0;

  const RuntimeConfig& cfg = config();
  const double rate = a ? static_cast<double>(b) / static_cast<double>(a) : 0;
  if (g_storm_active.load(std::memory_order_relaxed) == 0) {
    if (rate >= cfg.storm_on_rate &&
        g_storm_active.exchange(1, std::memory_order_acq_rel) == 0) {
      tx.stats->bump(tx.stats->gov_storm_enters);
      if (obs::flags() & obs::kTraceBit)
        trace::emit(trace::Event::StormEnter, AbortCause::None, tx.site);
    }
  } else if (rate <= cfg.storm_off_rate &&
             g_storm_active.exchange(0, std::memory_order_acq_rel) == 1) {
    tx.stats->bump(tx.stats->gov_storm_exits);
    if (obs::flags() & obs::kTraceBit)
      trace::emit(trace::Event::StormExit, AbortCause::None, tx.site);
  }

  // Slide: retire the prefix this thread observed so the estimate tracks
  // the recent past instead of the whole run.
  if (a >= 4ull * (cfg.storm_window ? cfg.storm_window : 1u)) {
    std::uint32_t f = 0;
    if (g_window.rotating.compare_exchange_strong(
            f, 1, std::memory_order_acq_rel)) {
      g_window.attempts.fetch_sub(a, std::memory_order_relaxed);
      g_window.aborts.fetch_sub(b, std::memory_order_relaxed);
      g_window.rotating.store(0, std::memory_order_release);
    }
  }
}

bool admit_gated(TxDesc& tx) {
  const RuntimeConfig& cfg = config();
  TxStats& s = *tx.stats;
  bool counted = false;
  unsigned spin = 0;
  while (g_storm_active.load(std::memory_order_acquire) != 0) {
    const std::uint32_t cap = cfg.storm_tokens ? cfg.storm_tokens : 1u;
    std::uint32_t c = g_inflight.load(std::memory_order_relaxed);
    if (c < cap &&
        g_inflight.compare_exchange_weak(c, c + 1,
                                         std::memory_order_acq_rel)) {
      tx.storm_token = true;
      return true;
    }
    if (!counted) {
      counted = true;
      count(tx, Ctr::gov_storm_gated);
      // The gate is a starvation hazard too: start the watchdog clock.
      if (tx.txn_start_ns == 0) tx.txn_start_ns = now_ns();
    }
    if (fault::active() && fault::perturb(fault::Hook::GovGate))
      s.bump(s.fault_delays);
    if (watchdog_expired(tx, cfg)) {
      escalate(tx);
      return false;
    }
    if (spin < cfg.park_spin_limit)
      spin_pause(spin++);
    else
      std::this_thread::yield();
  }
  return true;  // storm ended while we waited
}

void release_token(TxDesc& tx) noexcept {
  tx.storm_token = false;
  g_inflight.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace detail

const char* to_string(Disposition d) noexcept {
  switch (d) {
    case Disposition::Inherit: return "inherit";
    case Disposition::Backoff: return "backoff";
    case Disposition::Immediate: return "immediate";
    case Disposition::Drain: return "drain";
    case Disposition::Serial: return "serial";
  }
  return "?";
}

Disposition default_disposition(AbortCause cause) noexcept {
  switch (cause) {
    case AbortCause::Capacity:       // a too-big footprint stays too big
    case AbortCause::Unsafe:         // the irrevocable op will recur
      return Disposition::Serial;
    case AbortCause::SerialPending:  // wait the serial window out instead of
    case AbortCause::StripeBusy:     // burning budget against it (lemmings);
      return Disposition::Drain;     // a stuck stripe writeback clears the
                                     // same way a serial window does
    case AbortCause::Spurious:       // environmental, uncorrelated: just go
      return Disposition::Immediate;
    case AbortCause::Conflict:
    case AbortCause::Validation:
    case AbortCause::UserExplicit:
    default:
      return Disposition::Backoff;
  }
}

Decision on_abort(TxDesc& tx) {
  const RuntimeConfig& cfg = config();
  TxStats& s = *tx.stats;
  note_attempt(tx, true);
  if (tx.txn_start_ns == 0) tx.txn_start_ns = now_ns();

  // The watchdog outranks every disposition: a starving transaction goes
  // serial no matter why its attempts keep dying.
  if (watchdog_expired(tx, cfg)) return escalate(tx);

  int limit =
      cfg.mode == ExecMode::Htm ? cfg.htm_max_retries : cfg.stm_max_retries;
  // Retry-budget resolution: a per-section TxnAttrs override outranks the
  // global per-mode limit.
  if (tx.attr_retries >= 0) limit = tx.attr_retries;
  if (limit < 0) limit = 0;  // validate_config() rejects; stay safe anyway

  // Disposition resolution follows the same order: user attrs, then the
  // cause defaults.
  Disposition d =
      static_cast<Disposition>(tx.attr_disp[static_cast<int>(tx.last_abort)]);
  if (d == Disposition::Inherit) d = default_disposition(tx.last_abort);

  switch (d) {
    case Disposition::Serial:
      s.bump(s.gov_serial_immediate);
      return Decision::Serial;

    case Disposition::Drain: {
      count(tx, Ctr::gov_drain_waits);
      if (fault::active() && fault::perturb(fault::Hook::GovDrain))
        s.bump(s.fault_delays);
      if (tx.last_abort == AbortCause::StripeBusy) {
        // A stripe held odd past the bounded spin means its committer was
        // preempted mid-writeback; there is no drain condition to wait on —
        // it finishes as soon as that thread runs again. Budget-free pause
        // and retry; the watchdog bounds the pathological case.
        tx_backoff(tx);
        if (watchdog_expired(tx, cfg)) return escalate(tx);
        return Decision::Retry;
      }
      std::uint64_t waited = 0;
      const bool drained =
          serial_lock().wait_drained(cfg.serial_drain_timeout_ns, &waited);
      if (cfg.watchdog_stall_ns != 0 && waited >= cfg.watchdog_stall_ns) {
        s.bump(s.gov_stall_events);
        if (obs::flags() & obs::kTraceBit)
          trace::emit(trace::Event::WatchdogEscalate, AbortCause::SerialPending,
                      tx.site, static_cast<std::uint16_t>(tx.attempts), 0, 0,
                      waited);
      }
      if (watchdog_expired(tx, cfg)) return escalate(tx);
      if (drained) return Decision::Retry;  // budget-free re-attempt
      // Still busy past the timeout: charge the abort like any other so a
      // pathological writer stream cannot hide below the watchdog horizon.
      s.bump(s.gov_drain_timeouts);
      ++tx.budget_used;
      return tx.budget_used >= static_cast<unsigned>(limit)
                 ? Decision::Serial
                 : Decision::Retry;
    }

    case Disposition::Immediate:
      ++tx.budget_used;
      if (tx.budget_used >= static_cast<unsigned>(limit))
        return Decision::Serial;
      s.bump(s.gov_immediate_retries);
      return Decision::Retry;

    case Disposition::Backoff:
    case Disposition::Inherit:  // unreachable; treated as Backoff
    default:
      ++tx.budget_used;
      if (tx.budget_used >= static_cast<unsigned>(limit))
        return Decision::Serial;
      s.bump(s.gov_backoffs);
      tx_backoff(tx);
      return Decision::Retry;
  }
}

unsigned storm_inflight() noexcept {
  return g_inflight.load(std::memory_order_relaxed);
}

double abort_rate_estimate() noexcept {
  const std::uint64_t a = g_window.attempts.load(std::memory_order_relaxed);
  const std::uint64_t b = g_window.aborts.load(std::memory_order_relaxed);
  return a ? static_cast<double>(b) / static_cast<double>(a) : 0.0;
}

void reset() noexcept {
  g_window.attempts.store(0, std::memory_order_relaxed);
  g_window.aborts.store(0, std::memory_order_relaxed);
  g_window.rotating.store(0, std::memory_order_relaxed);
  g_inflight.store(0, std::memory_order_relaxed);
  detail::g_storm_active.store(0, std::memory_order_relaxed);
}

}  // namespace tle::gov
