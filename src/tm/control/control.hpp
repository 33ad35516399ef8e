// Adaptive exec-mode controller: the periodic policy loop that closes the
// obs→governor circle. It consumes the interval windows PR 8 built
// (obs::metrics_window()/metrics_history()) and re-plans, per site, the
// retry budget and serial disposition that gov::on_abort resolves below any
// per-section TxnAttrs override — the paper's "which mode wins depends on
// the workload" observation turned into a runtime policy.
//
// Decision table (per site, evaluated over the accumulated interval when it
// holds >= ctl_min_samples speculative attempts; ratios are aborts/attempts):
//
//   abort ratio <= ctl_release_ratio            -> Auto   (no overrides)
//   capacity-dominated (>= half of aborts)      -> Serial (speculation can't
//                                                  fit; probe recovery later)
//   abort ratio >= ctl_trip_ratio               -> Serial (tiny+hot thrash:
//                                                  speculation is wasted work)
//   conflict/validation-dominated               -> Boost  ("HTM with backoff":
//                                                  ctl_boost_retries budget,
//                                                  Backoff disposition)
//   spurious-dominated                          -> Boost  (Immediate disp —
//                                                  uncorrelated, retry hard)
//   otherwise (middling, mixed)                 -> keep the current plan
//
// Robustness machinery, all of it deliberately the governor's storm throttle
// generalized to mode selection:
//   * per-site confidence scoring: a changed classification must repeat for
//     ctl_confidence consecutive evaluations before the plan moves, and a
//     fresh plan holds for ctl_hold_windows evaluations — bounded flapping;
//   * degraded mode: a global abort ratio >= ctl_trip_ratio (or watchdog
//     escalations) sustained for ctl_trip_windows evaluations forces every
//     attempt serial; after the hold expires, recovery probes re-admit
//     1/2^ctl_probe_shift of attempts and each healthy interval halves the
//     shift until full speculation returns (or a re-trip flaps back);
//   * serial-planned sites recover the same way, through per-site probes;
//   * optionally (ctl_mode_switch) a capacity-dominated degraded entry
//     switches the global ExecMode HTM→STM under a drained serial section —
//     never per site: write-through STM commits bypass the HTM commit
//     stripes, so mixing per-site STM under a global HTM phase is unsound.
//
// Determinism contract: every decision is a pure function of counter deltas
// (never wall-clock durations, rates, or percentiles — exactly the fields
// deterministic metrics mode zeroes), so under a pinned TLE_FAULT_SEED with
// deterministic metrics the decision sequence — and decision_trace_json() —
// is byte-identical across runs.
//
// Threading: evaluation state lives behind one mutex, touched only by
// whoever feeds windows (the controller thread started by ctl::start(), or
// a test calling on_window() directly). The transaction path reads plans
// through lock-free per-site words (ctl::apply — one relaxed load per
// logical transaction when config().controller is set, nothing otherwise).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tm/config.hpp"
#include "tm/obs/metrics.hpp"

namespace tle {
struct TxDesc;
}

namespace tle::ctl {

/// Global controller state machine. Degraded forces every attempt serial;
/// Probing admits 1/2^probe_shift of attempts back to speculation.
enum class State : std::uint8_t { Normal, Degraded, Probing };

/// Per-site plan. Auto = no overrides; Boost = ctl_boost_retries budget plus
/// a cause-matched disposition; Serial = force the serial path (with
/// per-site recovery probes once the hold expires).
enum class SiteAction : std::uint8_t { Auto, Boost, Serial };

enum class DecisionKind : std::uint8_t {
  SitePlan,        ///< a site's action changed (detail = new SiteAction)
  SiteProbeStart,  ///< a Serial site began recovery probing
  SiteProbeWiden,  ///< healthy probe interval: site shift halved
  SiteProbeReset,  ///< probe interval re-tripped: shift and hold reset
  DegradedEnter,   ///< global trip (detail = dominant AbortCause)
  ProbeStart,      ///< degraded hold expired: global probing began
  ProbeWiden,      ///< healthy global probe interval: shift halved
  Flap,            ///< probing re-tripped back to degraded
  DegradedExit,    ///< global probe shift reached 0: full recovery
  ModeSwitch,      ///< drained global ExecMode switch (detail = new mode)
};

/// One decision-trace record. `seq` is 1-based and monotone; `window` is the
/// metrics-window index of the evaluation that produced it; `site` is -1 for
/// global decisions. `detail` is kind-dependent (see DecisionKind).
struct Decision {
  std::uint64_t seq = 0;
  std::uint64_t eval = 0;
  std::uint64_t window = 0;
  std::int32_t site = -1;
  DecisionKind kind = DecisionKind::SitePlan;
  State state = State::Normal;
  std::uint8_t shift = 0;
  std::uint8_t detail = 0;
};

/// Snapshot of one site's live plan (what ctl::apply consults).
struct SitePlanView {
  SiteAction action = SiteAction::Auto;
  int retries = -1;              ///< -1 = inherit the global/mode limit
  unsigned probe_shift = 0;      ///< >0: Serial site probing recovery
  AbortCause dominant = AbortCause::None;
};

/// Cumulative controller health, exported into every tle-metrics/v1 record.
struct Status {
  bool enabled = false;
  State state = State::Normal;
  unsigned probe_shift = 0;
  std::uint64_t evals = 0;
  std::uint64_t decisions = 0;
  std::uint64_t plan_changes = 0;
  std::uint64_t flaps = 0;
  std::uint64_t degraded_enters = 0;
  std::uint64_t degraded_exits = 0;
  std::uint64_t mode_switches = 0;
};

const char* to_string(State s) noexcept;
const char* to_string(SiteAction a) noexcept;
const char* to_string(DecisionKind k) noexcept;

/// Clear every plan, the state machine, accumulators, and the decision
/// trace. Call between test/benchmark phases (config().controller itself is
/// the enable switch and is not touched).
void reset() noexcept;

/// Transaction-path consult: stamps tx.ctl_retries / tx.ctl_disp from the
/// site's plan and may set tx.force_serial (degraded overlay, Serial plans
/// outside their probe fraction). Called by detail::run_transaction once per
/// top-level section when config().controller is set. Lock-free.
void apply(TxDesc& tx) noexcept;

/// Feed one closed metrics window. Accumulates its deltas and, every
/// ctl_period_windows windows, runs an evaluation pass. No-op when the
/// controller is disabled or for final_flush windows (shutdown residue must
/// never re-plan). Tests call this directly for thread-free determinism.
void on_window(const obs::MetricsWindow& w);

Status status() noexcept;
SitePlanView site_plan(int site) noexcept;

/// Decision trace, oldest first (bounded ring; see control.cpp).
std::vector<Decision> decisions();

/// Decisions with seq > `after_seq` — the incremental feed the metrics
/// exporter uses to embed fresh decisions into each JSONL record.
std::vector<Decision> decisions_since(std::uint64_t after_seq);

/// The whole retained trace as one deterministic tle-ctl-trace/v1 JSON
/// document (no timestamps — byte-identical across pinned-seed runs).
std::string decision_trace_json();

// --- controller thread ------------------------------------------------------

/// Start the controller thread: polls the metrics ring every
/// metrics_period_ms and feeds every window it has not yet consumed to
/// on_window(). Ensures metrics (and the sampler) are running. Idempotent;
/// no-op unless config().controller is set.
void start();

/// Join the controller thread. Called by obs::metrics_stop() BEFORE the
/// residual final window flushes, so no evaluation — and no counter bump
/// from one — can land after the stream's final record (the shutdown
/// ordering contract pinned by ControlShutdown tests). Idempotent.
void stop();

bool running() noexcept;

/// TLE_CTL=1 enables the controller and starts its thread (requires
/// metrics). TLE_CTL_PERIOD_WINDOWS / TLE_CTL_MIN_SAMPLES override the
/// corresponding knobs. Called from obs::init_from_env() after the metrics
/// env activation. Idempotent.
void init_from_env() noexcept;

}  // namespace tle::ctl
