// Helpers shared by the commit-protocol policies (protocol.hpp) and the
// engine's shared lifecycle (engine.cpp): stats access and fault-injection
// decision points (events are counted with count(), obs/site.hpp).
// Header-only so the policy bodies inline into the engine's dispatch sites
// with zero call overhead.
#pragma once

#include "tm/fault/fault.hpp"
#include "tm/obs/site.hpp"
#include "tm/stats.hpp"
#include "tm/txdesc.hpp"

namespace tle::protocol::detail {

inline TxStats& st(TxDesc& tx) noexcept { return *tx.stats; }

/// Fault-injection decision point: consult the armed plan at `h` and abort
/// with the injected cause if a rule fires. The abort takes the ordinary
/// tx_abort path, so rollback, per-cause stats, per-site obs attribution and
/// the retry/serial-fallback policy all treat it exactly like an organic
/// abort — only the extra faults_injected row distinguishes it.
inline void maybe_inject(TxDesc& tx, fault::Hook h) {
  if (!fault::active()) return;
  const AbortCause cause = fault::should_abort(h);
  if (cause == AbortCause::None) return;
  st(tx).bump(st(tx).faults_injected);
  tx_abort(tx, cause);
}

/// Schedule-perturbation point: widen the handshake window at `h` with the
/// plan's yield/sleep, accounting the delay to `stats`.
inline void maybe_perturb(TxStats& stats, fault::Hook h) {
  if (fault::active() && fault::perturb(h)) stats.bump(stats.fault_delays);
}

}  // namespace tle::protocol::detail
