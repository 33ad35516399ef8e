// Adaptive exec-mode controller implementation. See control.hpp for the
// decision table, state machine, and determinism contract.
#include "tm/control/control.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "tm/api.hpp"
#include "tm/fault/fault.hpp"
#include "tm/registry.hpp"
#include "tm/trace.hpp"
#include "tm/txdesc.hpp"
#include "util/align.hpp"

namespace tle::ctl {

namespace {

constexpr int kSites = obs::kMaxSites;

/// Retained decision-trace depth. Old decisions are dropped in blocks so
/// the byte-identity tests (which stay far below this) never see a partial
/// window of history.
constexpr std::size_t kTraceCap = 8192;

constexpr int cause_idx(AbortCause c) noexcept { return static_cast<int>(c); }

// Per-site plan word, read lock-free by apply():
//   bits  0..7   SiteAction
//   bits  8..15  probe shift (Serial plans only)
//   bits 16..23  dominant AbortCause
//   bits 32..63  retries + 1 (0 = inherit)
std::uint64_t pack_plan(SiteAction a, unsigned shift, AbortCause dom,
                        int retries) noexcept {
  if (a == SiteAction::Auto) return 0;
  return static_cast<std::uint64_t>(a) |
         (static_cast<std::uint64_t>(shift & 0xFF) << 8) |
         (static_cast<std::uint64_t>(dom) << 16) |
         (static_cast<std::uint64_t>(retries >= 0 ? retries + 1 : 0) << 32);
}

/// Interval accumulator: counter deltas summed since the last evaluation.
struct Acc {
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t aborts[kAbortCauseCount] = {};

  std::uint64_t aborts_total() const noexcept {
    std::uint64_t t = 0;
    for (auto a : aborts) t += a;
    return t;
  }
  double abort_ratio() const noexcept {
    return attempts ? static_cast<double>(aborts_total()) /
                          static_cast<double>(attempts)
                    : 0.0;
  }
  void clear() noexcept { *this = Acc{}; }
};

struct SiteState {
  SiteAction action = SiteAction::Auto;
  SiteAction pending = SiteAction::Auto;
  AbortCause pending_dom = AbortCause::None;
  AbortCause dominant = AbortCause::None;
  unsigned streak = 0;
  unsigned hold = 0;
  unsigned probe_shift = 0;
  int retries = -1;
  Acc acc;
};

struct Ctl {
  // --- lock-free, read by apply() on the transaction path ---------------
  /// Global overlay: state in bits 0..7, probe shift in bits 8..15.
  std::atomic<std::uint32_t> overlay{0};
  std::atomic<std::uint64_t> plans[kSites] = {};
  alignas(kCacheLine) std::atomic<std::uint32_t> global_probe{0};
  std::atomic<std::uint32_t> site_probe[kSites] = {};

  // --- evaluation state, behind mu ---------------------------------------
  std::mutex mu;
  State state = State::Normal;
  unsigned probe_shift = 0;
  unsigned trip_streak = 0;
  unsigned hold = 0;
  bool mode_switched = false;
  ExecMode saved_mode = ExecMode::Htm;
  std::uint64_t evals = 0;
  unsigned windows_since_eval = 0;
  std::uint64_t plan_changes = 0;
  std::uint64_t flaps = 0;
  std::uint64_t degraded_enters = 0;
  std::uint64_t degraded_exits = 0;
  std::uint64_t mode_switches = 0;
  Acc global;
  std::uint64_t acc_watchdog = 0;
  SiteState sites[kSites];
  std::vector<Decision> trace;
  std::uint64_t decision_seq = 0;

  // --- controller thread --------------------------------------------------
  std::mutex lifecycle;  ///< serializes start()/stop(); never held in loop
  std::thread th;
  std::atomic<bool> run{false};
  bool started = false;
};

/// Heap-allocated and never destroyed: transaction threads may consult the
/// plan tables during static destruction.
Ctl& g() noexcept {
  static Ctl* c = new Ctl();
  return *c;
}

TxStats& ctl_stats() noexcept { return my_slot().stats; }

void set_overlay(Ctl& c) noexcept {
  c.overlay.store(static_cast<std::uint32_t>(c.state) |
                      (static_cast<std::uint32_t>(c.probe_shift & 0xFF) << 8),
                  std::memory_order_relaxed);
}

void publish(Ctl& c, int site) noexcept {
  const SiteState& ss = c.sites[site];
  c.plans[site].store(
      pack_plan(ss.action, ss.probe_shift, ss.dominant, ss.retries),
      std::memory_order_relaxed);
}

/// 1/2^shift admission: every 2^shift-th caller passes.
bool admit(std::atomic<std::uint32_t>& ctr, unsigned shift) noexcept {
  const std::uint32_t mask = (1u << (shift > 31 ? 31 : shift)) - 1;
  return (ctr.fetch_add(1, std::memory_order_relaxed) & mask) == 0;
}

AbortCause dominant_cause(const Acc& a) noexcept {
  int best = cause_idx(AbortCause::None);
  std::uint64_t best_n = 0;
  for (int i = 1; i < kAbortCauseCount; ++i) {
    if (a.aborts[i] > best_n) {  // strict: ties keep the lowest index
      best_n = a.aborts[i];
      best = i;
    }
  }
  return best_n ? static_cast<AbortCause>(best) : AbortCause::None;
}

void record(Ctl& c, std::uint64_t window, std::int32_t site, DecisionKind k,
            std::uint8_t shift, std::uint8_t detail) {
  Decision d;
  d.seq = ++c.decision_seq;
  d.eval = c.evals;
  d.window = window;
  d.site = site;
  d.kind = k;
  d.state = c.state;
  d.shift = shift;
  d.detail = detail;
  if (c.trace.size() >= kTraceCap)
    c.trace.erase(c.trace.begin(), c.trace.begin() + kTraceCap / 2);
  c.trace.push_back(d);
  if (obs::flags() & obs::kTraceBit) {
    trace::Event ev;
    AbortCause cause = AbortCause::None;
    std::uint16_t retry = shift;
    switch (k) {
      case DecisionKind::SitePlan:
        ev = trace::Event::CtlPlanChange;
        cause = c.sites[site >= 0 ? site : 0].dominant;
        retry = detail;  // the new SiteAction
        break;
      case DecisionKind::DegradedEnter:
        ev = trace::Event::CtlDegradedEnter;
        cause = static_cast<AbortCause>(detail);
        break;
      case DecisionKind::Flap:
        ev = trace::Event::CtlDegradedEnter;
        cause = static_cast<AbortCause>(detail);
        break;
      case DecisionKind::DegradedExit:
        ev = trace::Event::CtlDegradedExit;
        break;
      case DecisionKind::ModeSwitch:
        ev = trace::Event::CtlModeSwitch;
        retry = detail;  // the new ExecMode
        break;
      default:
        ev = trace::Event::CtlProbe;
        break;
    }
    trace::emit(ev, cause, static_cast<std::uint16_t>(site >= 0 ? site : 0),
                retry);
  }
}

struct Proposal {
  SiteAction action = SiteAction::Auto;
  AbortCause dominant = AbortCause::None;
  int retries = -1;
  bool keep = false;  ///< middling mixed interval: leave the plan alone
};

Proposal classify(const Acc& a, const RuntimeConfig& cfg) noexcept {
  const std::uint64_t ab = a.aborts_total();
  const double r = a.abort_ratio();
  if (r <= cfg.ctl_release_ratio) return {SiteAction::Auto, AbortCause::None,
                                          -1, false};
  const std::uint64_t cap = a.aborts[cause_idx(AbortCause::Capacity)];
  const std::uint64_t conf = a.aborts[cause_idx(AbortCause::Conflict)] +
                             a.aborts[cause_idx(AbortCause::Validation)];
  const std::uint64_t spur = a.aborts[cause_idx(AbortCause::Spurious)];
  if (2 * cap >= ab)
    return {SiteAction::Serial, AbortCause::Capacity, -1, false};
  if (r >= cfg.ctl_trip_ratio)
    return {SiteAction::Serial, dominant_cause(a), -1, false};
  if (2 * conf >= ab)
    return {SiteAction::Boost, AbortCause::Conflict, cfg.ctl_boost_retries,
            false};
  if (2 * spur >= ab)
    return {SiteAction::Boost, AbortCause::Spurious, cfg.ctl_boost_retries,
            false};
  Proposal p;
  p.keep = true;
  return p;
}

void switch_mode_drained(ExecMode to) {
  // All speculation drains behind the serial write lock; in-flight logical
  // transactions re-read live_mode() at their next attempt. Only the mode
  // byte moves: the controller switches Htm <-> StmCondVar exclusively, and
  // those share quiesce=Always / honor_noquiesce=false, so no other config
  // field needs a racing write.
  synchronized_do([to](TxContext&) { set_live_mode(to); });
}

void maybe_mode_switch(Ctl& c, std::uint64_t window) {
  const RuntimeConfig& cfg = config();
  if (!cfg.ctl_mode_switch || c.mode_switched) return;
  if (live_mode() != ExecMode::Htm) return;
  const std::uint64_t ab = c.global.aborts_total();
  const std::uint64_t cap = c.global.aborts[cause_idx(AbortCause::Capacity)];
  if (ab == 0 || 2 * cap < ab) return;
  // Capacity-dominated storm: these footprints will never fit the HTM
  // model, but STM has no capacity limit. Global and drained only — see the
  // soundness note in control.hpp.
  c.saved_mode = ExecMode::Htm;
  c.mode_switched = true;
  switch_mode_drained(ExecMode::StmCondVar);
  ++c.mode_switches;
  TxStats& s = ctl_stats();
  s.bump(s.ctl_mode_switches);
  record(c, window, -1, DecisionKind::ModeSwitch, 0,
         static_cast<std::uint8_t>(ExecMode::StmCondVar));
}

void maybe_mode_restore(Ctl& c, std::uint64_t window) {
  if (!c.mode_switched) return;
  const ExecMode back = c.saved_mode;
  c.mode_switched = false;
  switch_mode_drained(back);
  ++c.mode_switches;
  TxStats& s = ctl_stats();
  s.bump(s.ctl_mode_switches);
  record(c, window, -1, DecisionKind::ModeSwitch, 0,
         static_cast<std::uint8_t>(back));
}

void evaluate_site(Ctl& c, int i, std::uint64_t window,
                   const RuntimeConfig& cfg, TxStats& s) {
  SiteState& ss = c.sites[i];
  const Acc& a = ss.acc;
  if (ss.hold > 0) {
    --ss.hold;
    return;
  }
  if (ss.action == SiteAction::Serial) {
    // Recovery probing: the governor's storm throttle generalized to mode
    // selection. Admit 1/2^shift of attempts; widen on healthy intervals.
    if (ss.probe_shift == 0) {
      ss.probe_shift = cfg.ctl_probe_shift;
      publish(c, i);
      record(c, window, i, DecisionKind::SiteProbeStart,
             static_cast<std::uint8_t>(ss.probe_shift),
             static_cast<std::uint8_t>(ss.dominant));
    } else if (a.attempts > 0) {
      const double r = a.abort_ratio();
      if (r <= cfg.ctl_release_ratio) {
        if (ss.probe_shift > 1) {
          --ss.probe_shift;
          publish(c, i);
          record(c, window, i, DecisionKind::SiteProbeWiden,
                 static_cast<std::uint8_t>(ss.probe_shift), 0);
        } else {
          ss.action = SiteAction::Auto;
          ss.pending = SiteAction::Auto;
          ss.pending_dom = AbortCause::None;
          ss.dominant = AbortCause::None;
          ss.probe_shift = 0;
          ss.retries = -1;
          ss.streak = 0;
          publish(c, i);
          ++c.plan_changes;
          s.bump(s.ctl_plan_changes);
          record(c, window, i, DecisionKind::SitePlan, 0,
                 static_cast<std::uint8_t>(SiteAction::Auto));
        }
      } else if (r >= cfg.ctl_trip_ratio) {
        ss.probe_shift = cfg.ctl_probe_shift;
        ss.hold = cfg.ctl_hold_windows;
        publish(c, i);
        record(c, window, i, DecisionKind::SiteProbeReset,
               static_cast<std::uint8_t>(ss.probe_shift), 0);
      }
    }
    return;
  }
  if (a.attempts < cfg.ctl_min_samples) return;
  const Proposal p = classify(a, cfg);
  if (p.keep) {
    return;
  }
  if (p.action == ss.action && p.dominant == ss.dominant) {
    ss.streak = 0;
    ss.pending = ss.action;
    ss.pending_dom = ss.dominant;
    return;
  }
  // Confidence scoring: the same changed classification must repeat for
  // ctl_confidence consecutive evaluations before the plan moves.
  if (ss.pending == p.action && ss.pending_dom == p.dominant) {
    ++ss.streak;
  } else {
    ss.pending = p.action;
    ss.pending_dom = p.dominant;
    ss.streak = 1;
  }
  if (ss.streak < cfg.ctl_confidence) return;
  ss.action = p.action;
  ss.dominant = p.dominant;
  ss.retries = p.retries;
  ss.probe_shift = 0;
  ss.hold = cfg.ctl_hold_windows;
  ss.streak = 0;
  publish(c, i);
  ++c.plan_changes;
  s.bump(s.ctl_plan_changes);
  record(c, window, i, DecisionKind::SitePlan, 0,
         static_cast<std::uint8_t>(p.action));
}

void evaluate(Ctl& c, std::uint64_t window) {
  const RuntimeConfig& cfg = config();
  TxStats& s = ctl_stats();
  if (fault::active() && fault::perturb(fault::Hook::CtlTick))
    s.bump(s.fault_delays);
  ++c.evals;
  s.bump(s.ctl_evals);

  const std::uint64_t att = c.global.attempts;
  const std::uint64_t ab = c.global.aborts_total();
  const double ratio = att ? static_cast<double>(ab) / att : 0.0;
  const bool sampled = att >= cfg.ctl_min_samples;
  const bool storm =
      (sampled && ratio >= cfg.ctl_trip_ratio) || c.acc_watchdog > 0;

  switch (c.state) {
    case State::Normal:
      c.trip_streak = storm ? c.trip_streak + 1 : 0;
      if (c.trip_streak >= cfg.ctl_trip_windows) {
        c.state = State::Degraded;
        c.hold = cfg.ctl_hold_windows;
        c.trip_streak = 0;
        set_overlay(c);
        ++c.degraded_enters;
        s.bump(s.ctl_degraded_enters);
        record(c, window, -1, DecisionKind::DegradedEnter, 0,
               static_cast<std::uint8_t>(dominant_cause(c.global)));
        maybe_mode_switch(c, window);
      }
      break;

    case State::Degraded:
      // Everything runs serial; transitions are hold-driven (there is no
      // speculative signal to read).
      if (c.hold > 0) --c.hold;
      if (c.hold == 0) {
        c.state = State::Probing;
        c.probe_shift = cfg.ctl_probe_shift;
        set_overlay(c);
        record(c, window, -1, DecisionKind::ProbeStart,
               static_cast<std::uint8_t>(c.probe_shift), 0);
      }
      break;

    case State::Probing: {
      // Speculative attempts in the interval are exactly the admitted
      // probes, so the interval abort ratio IS the probe verdict.
      const std::uint64_t need =
          cfg.ctl_min_samples >> (c.probe_shift > 31 ? 31 : c.probe_shift);
      const std::uint64_t have = att;
      if (have >= (need ? need : 1)) {
        if (ratio >= cfg.ctl_trip_ratio) {
          c.state = State::Degraded;
          c.hold = cfg.ctl_hold_windows;
          c.probe_shift = 0;
          set_overlay(c);
          ++c.flaps;
          s.bump(s.ctl_flaps);
          record(c, window, -1, DecisionKind::Flap, 0,
                 static_cast<std::uint8_t>(dominant_cause(c.global)));
        } else if (ratio <= cfg.ctl_release_ratio) {
          if (c.probe_shift > 1) {
            --c.probe_shift;
            set_overlay(c);
            record(c, window, -1, DecisionKind::ProbeWiden,
                   static_cast<std::uint8_t>(c.probe_shift), 0);
          } else {
            c.probe_shift = 0;
            c.state = State::Normal;
            c.trip_streak = 0;
            set_overlay(c);
            ++c.degraded_exits;
            s.bump(s.ctl_degraded_exits);
            record(c, window, -1, DecisionKind::DegradedExit, 0, 0);
            maybe_mode_restore(c, window);
          }
        }
        // middling ratio: hold the current probe fraction
      }
      break;
    }
  }

  // Per-site replanning runs only in Normal state: while degraded/probing
  // the global overlay owns routing, and replanning from probe trickle
  // would be decisions made on starved samples.
  if (c.state == State::Normal)
    for (int i = 0; i < kSites; ++i) evaluate_site(c, i, window, cfg, s);

  c.global.clear();
  c.acc_watchdog = 0;
  for (int i = 0; i < kSites; ++i) c.sites[i].acc.clear();
}

// ---------------------------------------------------------------------------
// Controller thread
// ---------------------------------------------------------------------------

void controller_loop(Ctl& c) {
  std::uint64_t next = 0;
  bool seen_any = false;
  while (c.run.load(std::memory_order_acquire)) {
    const unsigned period = config().metrics_period_ms;
    for (unsigned slept = 0;
         slept < period && c.run.load(std::memory_order_acquire);
         slept += 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          period - slept < 10 ? period - slept : 10));
    if (!c.run.load(std::memory_order_acquire)) break;
    const std::vector<obs::MetricsWindow> hist = obs::metrics_history();
    if (hist.empty()) continue;
    // metrics_reset() restarts window numbering: resynchronize.
    if (seen_any && hist.back().index + 1 < next) next = hist.front().index;
    for (const obs::MetricsWindow& w : hist) {
      if (w.index < next && seen_any) continue;
      on_window(w);
      next = w.index + 1;
      seen_any = true;
    }
  }
}

}  // namespace

const char* to_string(State s) noexcept {
  switch (s) {
    case State::Normal: return "normal";
    case State::Degraded: return "degraded";
    case State::Probing: return "probing";
  }
  return "?";
}

const char* to_string(SiteAction a) noexcept {
  switch (a) {
    case SiteAction::Auto: return "auto";
    case SiteAction::Boost: return "boost";
    case SiteAction::Serial: return "serial";
  }
  return "?";
}

const char* to_string(DecisionKind k) noexcept {
  switch (k) {
    case DecisionKind::SitePlan: return "site-plan";
    case DecisionKind::SiteProbeStart: return "site-probe-start";
    case DecisionKind::SiteProbeWiden: return "site-probe-widen";
    case DecisionKind::SiteProbeReset: return "site-probe-reset";
    case DecisionKind::DegradedEnter: return "degraded-enter";
    case DecisionKind::ProbeStart: return "probe-start";
    case DecisionKind::ProbeWiden: return "probe-widen";
    case DecisionKind::Flap: return "flap";
    case DecisionKind::DegradedExit: return "degraded-exit";
    case DecisionKind::ModeSwitch: return "mode-switch";
  }
  return "?";
}

void reset() noexcept {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.mu);
  c.state = State::Normal;
  c.probe_shift = 0;
  c.trip_streak = 0;
  c.hold = 0;
  c.mode_switched = false;
  c.evals = 0;
  c.windows_since_eval = 0;
  c.plan_changes = 0;
  c.flaps = 0;
  c.degraded_enters = 0;
  c.degraded_exits = 0;
  c.mode_switches = 0;
  c.global.clear();
  c.acc_watchdog = 0;
  c.trace.clear();
  c.decision_seq = 0;
  set_overlay(c);
  c.global_probe.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kSites; ++i) {
    c.sites[i] = SiteState{};
    c.plans[i].store(0, std::memory_order_relaxed);
    c.site_probe[i].store(0, std::memory_order_relaxed);
  }
}

void apply(TxDesc& tx) noexcept {
  Ctl& c = g();
  tx.ctl_retries = -1;
  std::memset(tx.ctl_disp, 0, sizeof tx.ctl_disp);
  if (tx.force_serial) return;  // user attrs / fault plan already decided
  TxStats& s = *tx.stats;
  const std::uint32_t ov = c.overlay.load(std::memory_order_relaxed);
  const State st = static_cast<State>(ov & 0xFF);
  if (st == State::Degraded) {
    tx.force_serial = true;
    s.bump(s.ctl_forced_serial);
    return;
  }
  if (st == State::Probing) {
    if (!admit(c.global_probe, (ov >> 8) & 0xFF)) {
      tx.force_serial = true;
      s.bump(s.ctl_forced_serial);
      return;
    }
    s.bump(s.ctl_probe_attempts);
  }
  const std::uint64_t word = c.plans[tx.site].load(std::memory_order_relaxed);
  if (word == 0) return;  // Auto: no overrides (the common case)
  const SiteAction action = static_cast<SiteAction>(word & 0xFF);
  if (action == SiteAction::Boost) {
    const std::uint32_t r = static_cast<std::uint32_t>(word >> 32);
    if (r != 0) tx.ctl_retries = static_cast<int>(r - 1);
    const AbortCause dom = static_cast<AbortCause>((word >> 16) & 0xFF);
    if (dom == AbortCause::Spurious) {
      tx.ctl_disp[cause_idx(AbortCause::Spurious)] =
          static_cast<std::uint8_t>(gov::Disposition::Immediate);
    } else {
      tx.ctl_disp[cause_idx(AbortCause::Conflict)] =
          static_cast<std::uint8_t>(gov::Disposition::Backoff);
      tx.ctl_disp[cause_idx(AbortCause::Validation)] =
          static_cast<std::uint8_t>(gov::Disposition::Backoff);
    }
    s.bump(s.ctl_boost_applied);
    return;
  }
  if (action == SiteAction::Serial) {
    const unsigned shift = (word >> 8) & 0xFF;
    if (shift > 0 && admit(c.site_probe[tx.site], shift)) {
      s.bump(s.ctl_probe_attempts);
      return;  // probe: speculate under the default policy
    }
    tx.force_serial = true;
    s.bump(s.ctl_forced_serial);
  }
}

void on_window(const obs::MetricsWindow& w) {
  if (!config().controller) return;
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.mu);
  if (w.final_flush) return;  // shutdown residue must never re-plan
  c.global.attempts += w.txn_starts;
  c.global.commits += w.commits;
  c.global.serial_fallbacks += w.serial_fallbacks;
  c.acc_watchdog += w.gauges.watchdog_escalations;
  for (const obs::SiteWindow& sw : w.sites) {
    if (sw.id < 0 || sw.id >= kSites) continue;
    Acc& sa = c.sites[sw.id].acc;
    sa.attempts += sw.attempts;
    sa.commits += sw.commits;
    sa.serial_fallbacks += sw.serial_fallbacks;
    for (int a = 0; a < kAbortCauseCount; ++a) {
      sa.aborts[a] += sw.aborts[a];
      c.global.aborts[a] += sw.aborts[a];
    }
  }
  if (++c.windows_since_eval <
      static_cast<unsigned>(config().ctl_period_windows))
    return;
  c.windows_since_eval = 0;
  evaluate(c, w.index);
}

Status status() noexcept {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.mu);
  Status st;
  st.enabled = config().controller;
  st.state = c.state;
  st.probe_shift = c.probe_shift;
  st.evals = c.evals;
  st.decisions = c.decision_seq;
  st.plan_changes = c.plan_changes;
  st.flaps = c.flaps;
  st.degraded_enters = c.degraded_enters;
  st.degraded_exits = c.degraded_exits;
  st.mode_switches = c.mode_switches;
  return st;
}

SitePlanView site_plan(int site) noexcept {
  SitePlanView v;
  if (site < 0 || site >= kSites) return v;
  const std::uint64_t word = g().plans[site].load(std::memory_order_relaxed);
  if (word == 0) return v;
  v.action = static_cast<SiteAction>(word & 0xFF);
  v.probe_shift = (word >> 8) & 0xFF;
  v.dominant = static_cast<AbortCause>((word >> 16) & 0xFF);
  const std::uint32_t r = static_cast<std::uint32_t>(word >> 32);
  v.retries = r ? static_cast<int>(r - 1) : -1;
  return v;
}

std::vector<Decision> decisions() {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.trace;
}

std::vector<Decision> decisions_since(std::uint64_t after_seq) {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.mu);
  std::vector<Decision> out;
  for (const Decision& d : c.trace)
    if (d.seq > after_seq) out.push_back(d);
  return out;
}

namespace {

void append_decision_json(std::string& out, const Decision& d) {
  char buf[256];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"seq\":%llu,\"eval\":%llu,\"window\":%llu,\"site\":%d,"
      "\"kind\":\"%s\",\"state\":\"%s\",\"shift\":%u,\"detail\":%u}",
      static_cast<unsigned long long>(d.seq),
      static_cast<unsigned long long>(d.eval),
      static_cast<unsigned long long>(d.window), static_cast<int>(d.site),
      to_string(d.kind), to_string(d.state), static_cast<unsigned>(d.shift),
      static_cast<unsigned>(d.detail));
  if (n > 0) out.append(buf, buf + n);
}

}  // namespace

std::string decision_trace_json() {
  const std::vector<Decision> ds = decisions();
  std::string out = "{\"schema\":\"tle-ctl-trace/v1\",\"decisions\":[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i) out += ',';
    append_decision_json(out, ds[i]);
  }
  out += "]}";
  return out;
}

void start() {
  if (!config().controller) return;
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.lifecycle);
  if (c.started) return;
  obs::metrics_start();   // the controller is blind without windows...
  obs::profile_enable(true);  // ...and per-site planning needs site counters
  c.run.store(true, std::memory_order_release);
  c.th = std::thread(controller_loop, std::ref(c));
  c.started = true;
}

void stop() {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.lifecycle);
  if (!c.started) return;
  c.run.store(false, std::memory_order_release);
  if (c.th.joinable()) c.th.join();
  c.started = false;
}

bool running() noexcept {
  Ctl& c = g();
  std::lock_guard<std::mutex> lk(c.lifecycle);
  return c.started;
}

void init_from_env() noexcept {
  static bool done = false;
  if (done) return;
  done = true;
  const char* on = std::getenv("TLE_CTL");
  if (!on || on[0] == '\0' || on[0] == '0') return;
  RuntimeConfig& cfg = config();
  if (!cfg.metrics) return;  // validate_config coherence
  if (const char* p = std::getenv("TLE_CTL_PERIOD_WINDOWS")) {
    const long v = std::strtol(p, nullptr, 10);
    if (v >= 1) cfg.ctl_period_windows = static_cast<int>(v);
  }
  if (const char* p = std::getenv("TLE_CTL_MIN_SAMPLES")) {
    const long v = std::strtol(p, nullptr, 10);
    if (v >= 1) cfg.ctl_min_samples = static_cast<unsigned>(v);
  }
  cfg.controller = true;
  start();
  // Registered after the metrics shutdown atexit (we are called last from
  // obs::init_from_env), so LIFO runs this first: the controller thread is
  // joined before the residual final window flushes.
  std::atexit([] { stop(); });
}

}  // namespace tle::ctl
