#include "tm/governor/governor.hpp"

#include "tm/fault/fault.hpp"
#include "tm/obs/site.hpp"
#include "tm/serial_lock.hpp"
#include "tm/trace.hpp"
#include "util/timing.hpp"

namespace tle::gov {

namespace {

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

}  // namespace tle::gov
