// Tests for the adaptive exec-mode controller (PR: self-tuning control loop):
//   * validate_config() rejection of every nonsensical controller knob,
//   * the per-site decision table against hand-built synthetic windows:
//     conflict -> Boost, capacity -> Serial, healthy -> Auto,
//   * confidence scoring (one anomalous interval never moves a plan) and
//     post-change holds,
//   * per-site recovery probes: Serial -> probe start -> widen -> Auto,
//   * the global degraded state machine: sustained storm -> Degraded ->
//     Probing -> widen -> DegradedExit, watchdog-triggered entry, and the
//     flap bound (a re-trip goes back through the full hold),
//   * the drained global HTM->STM switch on capacity-dominated degradation
//     and its restore on recovery,
//   * ctl::apply() routing: degraded overlay, probe admission fractions,
//     Boost budget/disposition stamping, attr-override precedence,
//   * real-engine phase-shift chaos (capacity -> conflict -> spurious ->
//     healthy) with per-phase convergence and a byte-identical decision
//     trace across two pinned-seed runs,
//   * shutdown ordering: metrics_stop() joins the controller thread before
//     the residual final window, and evaluations stay frozen afterwards.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/control/control.hpp"
#include "tm/fault/fault.hpp"
#include "tm/governor/governor.hpp"
#include "tm/obs/export.hpp"
#include "tm/obs/metrics.hpp"
#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "tm/tm.hpp"

namespace tle {
namespace {

using testing::ModeGuard;

constexpr int kCap = static_cast<int>(AbortCause::Capacity);
constexpr int kConf = static_cast<int>(AbortCause::Conflict);
constexpr int kSpur = static_cast<int>(AbortCause::Spurious);

/// Clean controller scope with fast, test-sized knobs: evaluate on every
/// window, 10-sample significance floor, 2-window confidence, 2-window
/// holds/trips, probes starting at 1/8. Restores everything on exit.
struct CtlGuard {
  RuntimeConfig saved = config();
  CtlGuard() {
    fault::clear();
    reset_stats();
    gov::reset();
    config().controller = true;
    config().ctl_period_windows = 1;
    config().ctl_min_samples = 10;
    config().ctl_confidence = 2;
    config().ctl_hold_windows = 2;
    config().ctl_trip_windows = 2;
    config().ctl_probe_shift = 3;
    ctl::reset();
  }
  ~CtlGuard() {
    ctl::reset();
    fault::clear();
    config() = saved;
  }
};

/// A deterministic synthetic window: tests feed these straight to
/// ctl::on_window(), no sampler or engine involved.
obs::MetricsWindow mkwin(std::uint64_t index) {
  obs::MetricsWindow w;
  w.index = index;
  w.deterministic = true;
  return w;
}

void add_site(obs::MetricsWindow& w, int id, std::uint64_t attempts,
              std::uint64_t commits, int cause = 0, std::uint64_t n = 0) {
  obs::SiteWindow s;
  s.id = id;
  s.attempts = attempts;
  s.commits = commits;
  if (n) s.aborts[cause] = n;
  w.sites.push_back(s);
  w.txn_starts += attempts;
  w.commits += commits;
  w.aborts += n;
}

/// Feed `n` copies of a window shape, bumping the index each time.
void feed(std::uint64_t& idx, int n,
          const std::function<void(obs::MetricsWindow&)>& fill) {
  for (int i = 0; i < n; ++i) {
    obs::MetricsWindow w = mkwin(idx++);
    fill(w);
    ctl::on_window(w);
  }
}

/// A TxDesc wired up just enough for ctl::apply().
TxDesc make_tx(std::uint16_t site) {
  TxDesc tx;
  tx.stats = &my_slot().stats;
  tx.site = site;
  return tx;
}

// ---------------------------------------------------------------------------
// validate_config
// ---------------------------------------------------------------------------

TEST(ControlConfig, ValidateRejectsNonsensicalKnobs) {
  EXPECT_EQ(validate_config(RuntimeConfig{}), nullptr);

  RuntimeConfig ok;
  ok.controller = true;
  EXPECT_EQ(validate_config(ok), nullptr);

  // A controller without its instrument panel is flying blind.
  RuntimeConfig c;
  c.controller = true;
  c.metrics = false;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_period_windows = 0;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_period_windows = -3;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_min_samples = 0;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_confidence = 0;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_trip_ratio = 1.5;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_release_ratio = -0.1;
  EXPECT_NE(validate_config(c), nullptr);

  // Hysteresis is an open interval: release == trip would flap on the
  // boundary, release > trip would never converge at all.
  c = RuntimeConfig{};
  c.ctl_trip_ratio = 0.7;
  c.ctl_release_ratio = 0.7;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_trip_ratio = 0.4;
  c.ctl_release_ratio = 0.6;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_trip_windows = 0;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_probe_shift = 0;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_probe_shift = 17;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.ctl_boost_retries = -1;
  EXPECT_NE(validate_config(c), nullptr);
}

// ---------------------------------------------------------------------------
// Per-site decision table (synthetic windows)
// ---------------------------------------------------------------------------

TEST(ControlPlan, ConflictDominatedSiteGetsBoost) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  // 60% conflict aborts: above release, below trip, conflict-dominated.
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 3, 100, 40, kConf, 60);
  });
  const ctl::SitePlanView p = ctl::site_plan(3);
  EXPECT_EQ(p.action, ctl::SiteAction::Boost);
  EXPECT_EQ(p.retries, config().ctl_boost_retries);
  EXPECT_EQ(p.dominant, AbortCause::Conflict);
  EXPECT_EQ(ctl::status().plan_changes, 1u);
}

TEST(ControlPlan, CapacityDominatedSiteGoesSerial) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 4, 100, 20, kCap, 80);
  });
  const ctl::SitePlanView p = ctl::site_plan(4);
  EXPECT_EQ(p.action, ctl::SiteAction::Serial);
  EXPECT_EQ(p.dominant, AbortCause::Capacity);
}

TEST(ControlPlan, SpuriousDominatedSiteBoostsWithImmediateDisposition) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 5, 100, 40, kSpur, 60);
  });
  EXPECT_EQ(ctl::site_plan(5).action, ctl::SiteAction::Boost);
  TxDesc tx = make_tx(5);
  ctl::apply(tx);
  EXPECT_FALSE(tx.force_serial);
  EXPECT_EQ(tx.ctl_retries, config().ctl_boost_retries);
  EXPECT_EQ(tx.ctl_disp[kSpur],
            static_cast<std::uint8_t>(gov::Disposition::Immediate));
  EXPECT_EQ(tx.ctl_disp[kConf], 0u);  // Inherit
}

// One anomalous interval must never move a plan: confidence requires the
// same changed classification on consecutive evaluations.
TEST(ControlPlan, SingleBadWindowDoesNotChangeThePlan) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 1, [](obs::MetricsWindow& w) {
    add_site(w, 6, 100, 20, kCap, 80);
  });
  EXPECT_EQ(ctl::site_plan(6).action, ctl::SiteAction::Auto);
  // A healthy window resets the streak; another single spike changes nothing.
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 6, 100, 100); });
  feed(idx, 1, [](obs::MetricsWindow& w) {
    add_site(w, 6, 100, 20, kCap, 80);
  });
  EXPECT_EQ(ctl::site_plan(6).action, ctl::SiteAction::Auto);
  EXPECT_EQ(ctl::status().plan_changes, 0u);
}

// Below the significance floor the controller must not react at all.
TEST(ControlPlan, BelowMinSamplesIsIgnored) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 4, [](obs::MetricsWindow& w) {
    add_site(w, 7, 5, 0, kCap, 5);  // 100% aborts, but only 5 samples
  });
  EXPECT_EQ(ctl::site_plan(7).action, ctl::SiteAction::Auto);
}

TEST(ControlPlan, SerialSiteProbesItsWayBackToAuto) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 8, 100, 20, kCap, 80);
  });
  ASSERT_EQ(ctl::site_plan(8).action, ctl::SiteAction::Serial);

  // Hold (2 evals, empty windows), then the probe starts at 1/8.
  feed(idx, 2, [](obs::MetricsWindow&) {});
  EXPECT_EQ(ctl::site_plan(8).probe_shift, 0u);
  feed(idx, 1, [](obs::MetricsWindow&) {});
  EXPECT_EQ(ctl::site_plan(8).action, ctl::SiteAction::Serial);
  EXPECT_EQ(ctl::site_plan(8).probe_shift, 3u);

  // apply(): with shift 3 exactly one of 8 consecutive attempts speculates.
  int speculated = 0;
  for (int i = 0; i < 8; ++i) {
    TxDesc tx = make_tx(8);
    ctl::apply(tx);
    if (!tx.force_serial) ++speculated;
  }
  EXPECT_EQ(speculated, 1);

  // Healthy probe intervals widen 3 -> 2 -> 1, then restore Auto.
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 8, 4, 4); });
  EXPECT_EQ(ctl::site_plan(8).probe_shift, 2u);
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 8, 4, 4); });
  EXPECT_EQ(ctl::site_plan(8).probe_shift, 1u);
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 8, 4, 4); });
  EXPECT_EQ(ctl::site_plan(8).action, ctl::SiteAction::Auto);
  EXPECT_EQ(ctl::status().plan_changes, 2u);  // ->Serial, ->Auto
}

// A probe interval that re-trips resets the probe fraction and re-holds
// instead of widening into a storm.
TEST(ControlPlan, SiteProbeRetripResets) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 9, 100, 20, kCap, 80);
  });
  feed(idx, 3, [](obs::MetricsWindow&) {});  // hold + probe start
  ASSERT_EQ(ctl::site_plan(9).probe_shift, 3u);
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 9, 4, 4); });
  ASSERT_EQ(ctl::site_plan(9).probe_shift, 2u);
  // Probe interval dies hard: back to 1/8 and a fresh hold.
  feed(idx, 1, [](obs::MetricsWindow& w) {
    add_site(w, 9, 4, 0, kCap, 4);
  });
  EXPECT_EQ(ctl::site_plan(9).probe_shift, 3u);
  EXPECT_EQ(ctl::site_plan(9).action, ctl::SiteAction::Serial);
  bool saw_reset = false;
  for (const ctl::Decision& d : ctl::decisions())
    if (d.kind == ctl::DecisionKind::SiteProbeReset) saw_reset = true;
  EXPECT_TRUE(saw_reset);
}

// ---------------------------------------------------------------------------
// Global degraded mode
// ---------------------------------------------------------------------------

TEST(ControlDegraded, SustainedStormEntersAndRecoveryExits) {
  CtlGuard cg;
  std::uint64_t idx = 0;

  // One storm window is not enough (trip_windows = 2)...
  feed(idx, 1, [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 5, kConf, 95);
  });
  EXPECT_EQ(ctl::status().state, ctl::State::Normal);
  // ... a second one is.
  feed(idx, 1, [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 5, kConf, 95);
  });
  ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  EXPECT_EQ(ctl::status().degraded_enters, 1u);

  // Degraded overlay forces every attempt serial, regardless of site.
  {
    TxDesc tx = make_tx(0);
    ctl::apply(tx);
    EXPECT_TRUE(tx.force_serial);
  }

  // Hold expires -> probing at 1/8.
  feed(idx, 2, [](obs::MetricsWindow&) {});
  ASSERT_EQ(ctl::status().state, ctl::State::Probing);
  EXPECT_EQ(ctl::status().probe_shift, 3u);

  // Probing admits 1 in 8 attempts globally.
  int speculated = 0;
  for (int i = 0; i < 8; ++i) {
    TxDesc tx = make_tx(0);
    ctl::apply(tx);
    if (!tx.force_serial) ++speculated;
  }
  EXPECT_EQ(speculated, 1);

  // Healthy probe intervals widen 3 -> 2 -> 1, then full recovery. The
  // significance floor scales with the admitted fraction (min_samples >>
  // shift), so each probe window must carry enough traffic for its rung.
  feed(idx, 2, [](obs::MetricsWindow& w) { add_site(w, 2, 8, 8); });
  ASSERT_EQ(ctl::status().probe_shift, 1u);
  feed(idx, 1, [](obs::MetricsWindow& w) { add_site(w, 2, 8, 8); });
  EXPECT_EQ(ctl::status().state, ctl::State::Normal);
  EXPECT_EQ(ctl::status().degraded_exits, 1u);
  EXPECT_EQ(ctl::status().flaps, 0u);

  TxDesc tx = make_tx(0);
  ctl::apply(tx);
  EXPECT_FALSE(tx.force_serial);
}

TEST(ControlDegraded, WatchdogEscalationsTriggerEntry) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    w.gauges.watchdog_escalations = 3;  // storm signal without abort volume
  });
  EXPECT_EQ(ctl::status().state, ctl::State::Degraded);
}

// A probe interval that re-trips flaps back to Degraded — and the flap is
// BOUNDED: each round trip costs a full hold, so k storm rounds can produce
// at most k flaps, never a tight oscillation inside one round.
TEST(ControlDegraded, FlapsAreCountedAndBounded) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  auto storm = [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 5, kConf, 95);
  };
  feed(idx, 2, storm);
  ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  for (int round = 0; round < 3; ++round) {
    feed(idx, 2, [](obs::MetricsWindow&) {});  // hold -> probing
    ASSERT_EQ(ctl::status().state, ctl::State::Probing);
    feed(idx, 1, storm);  // probe re-trips
    ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  }
  EXPECT_EQ(ctl::status().flaps, 3u);
  EXPECT_EQ(ctl::status().degraded_enters, 1u);  // flaps are not re-entries
}

TEST(ControlDegraded, CapacityStormSwitchesModeAndRecoveryRestoresIt) {
  ModeGuard mg(ExecMode::Htm);
  CtlGuard cg;
  ASSERT_EQ(live_mode(), ExecMode::Htm);
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 2, kCap, 98);
  });
  ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  // Capacity-dominated: these footprints never fit HTM, so the controller
  // moved the whole runtime to STM under a drained serial section.
  EXPECT_EQ(live_mode(), ExecMode::StmCondVar);
  EXPECT_EQ(ctl::status().mode_switches, 1u);

  feed(idx, 2, [](obs::MetricsWindow&) {});
  feed(idx, 3, [](obs::MetricsWindow& w) { add_site(w, 2, 8, 8); });
  ASSERT_EQ(ctl::status().state, ctl::State::Normal);
  EXPECT_EQ(live_mode(), ExecMode::Htm);
  EXPECT_EQ(ctl::status().mode_switches, 2u);
}

TEST(ControlDegraded, ModeSwitchDisabledByKnob) {
  ModeGuard mg(ExecMode::Htm);
  CtlGuard cg;
  config().ctl_mode_switch = false;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 2, kCap, 98);
  });
  ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  EXPECT_EQ(live_mode(), ExecMode::Htm);
  EXPECT_EQ(ctl::status().mode_switches, 0u);
}

// ---------------------------------------------------------------------------
// apply() precedence and inertness
// ---------------------------------------------------------------------------

TEST(ControlApply, DisabledControllerLeavesNoTrace) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 3, 100, 20, kCap, 80);
  });
  ASSERT_EQ(ctl::site_plan(3).action, ctl::SiteAction::Serial);
  // run_transaction consults apply() only under cfg.controller, and the
  // governor reads ctl_retries/ctl_disp only under the same gate — so a
  // stale plan is inert the moment the controller is switched off.
  config().controller = false;
  obs::MetricsWindow w = mkwin(idx);
  add_site(w, 3, 100, 20, kCap, 80);
  ctl::on_window(w);  // must be a no-op now
  EXPECT_EQ(ctl::status().evals, 2u);
}

TEST(ControlApply, PreSetForceSerialIsRespected) {
  CtlGuard cg;
  TxDesc tx = make_tx(0);
  tx.force_serial = true;  // user attr / fault plan decided first
  ctl::apply(tx);
  EXPECT_TRUE(tx.force_serial);
  EXPECT_EQ(aggregate_stats().ctl_forced_serial, 0u);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

// The same synthetic window sequence must produce a byte-identical decision
// trace — decisions are pure functions of counter deltas.
TEST(ControlDeterminism, SyntheticFeedTraceIsByteIdentical) {
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    CtlGuard cg;
    std::uint64_t idx = 0;
    feed(idx, 2, [](obs::MetricsWindow& w) {
      add_site(w, 3, 100, 40, kConf, 60);
      add_site(w, 4, 100, 20, kCap, 80);
    });
    feed(idx, 2, [](obs::MetricsWindow& w) {
      add_site(w, 2, 100, 5, kConf, 95);
    });
    feed(idx, 4, [](obs::MetricsWindow& w) { add_site(w, 2, 8, 8); });
    traces[run] = ctl::decision_trace_json();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_NE(traces[0].find("\"schema\":\"tle-ctl-trace/v1\""),
            std::string::npos);
  EXPECT_EQ(traces[0], traces[1]);
}

// ---------------------------------------------------------------------------
// Real-engine phase-shift chaos
// ---------------------------------------------------------------------------

/// One phase: run `txns` single-thread transactions at a dedicated site
/// under the given fault spec, then close a metrics window and feed it to
/// the controller. Returns the site's plan afterwards.
struct ChaosHarness {
  std::uint64_t seed;
  explicit ChaosHarness(std::uint64_t s) : seed(s) {
    reset_stats();
    obs::reset_site_profiles();
    obs::metrics_enable(true);
    // Per-site engine counters (the controller's planning input) only tick
    // with site profiling on; ctl::start() enables it the same way.
    obs::profile_enable(true);
    obs::metrics_set_deterministic(true);
    obs::metrics_reset();
    ctl::reset();
    fault::set_thread_stream(1);
  }
  ~ChaosHarness() {
    fault::clear();
    obs::metrics_set_deterministic(false);
    obs::metrics_enable(false);
    obs::profile_enable(false);
  }

  void run_phase(const obs::TxSite& site, const char* spec, int rounds,
                 int txns_per_round) {
    // Union in an externally-supplied perturbation plan (the sanitizer
    // matrix parks delay/yield on ctl_tick) and fold its seed in. Decisions
    // are pure functions of counter deltas, so perturbation-only plans must
    // not change any assertion below — that invariance is the point.
    std::string full = spec ? spec : "";
    std::uint64_t s = seed;
    if (const char* extra = std::getenv("TLE_FAULT_PLAN")) {
      if (!full.empty()) full += ',';
      full += extra;
      if (const char* es = std::getenv("TLE_FAULT_SEED"))
        s ^= std::strtoull(es, nullptr, 10);
    }
    if (!full.empty())
      ASSERT_TRUE(fault::install_spec(full.c_str(), s));
    else
      fault::clear();
    fault::set_thread_stream(1);
    tm_var<long> v(0);
    for (int r = 0; r < rounds; ++r) {
      for (int t = 0; t < txns_per_round; ++t)
        atomic_do(site, [&](TxContext& tx) { tx.fetch_add(v, 1L); });
      ctl::on_window(obs::metrics_tick());
    }
  }
};

TEST(ControlChaos, PhaseShiftConvergesPerPhaseAndRecovers) {
  ModeGuard mg(ExecMode::StmCondVar);
  CtlGuard cg;
  config().ctl_mode_switch = false;  // phases probe plans, not global mode
  config().stm_max_retries = 4;
  // A pure capacity storm has a global speculative abort ratio of 1.0
  // (serial fallbacks commit outside the attempt accounting), which would
  // trip the GLOBAL machine -- and per-site replanning, the thing this test
  // exercises, only runs in the Normal state. Push the global trip streak
  // out of reach; the degraded machinery has its own tests below.
  config().ctl_trip_windows = 100;
  // ... and sideline the governor's storm gate for the same reason: its
  // serial-forcing would distort the per-site attempt mix.
  config().storm_on_rate = 1.1;
  ChaosHarness h(42);
  const obs::TxSite& site = TLE_TX_SITE("ctl_chaos/phase");

  // Phase 1 — capacity-dominated: every speculative attempt dies on
  // capacity and the governor sends it serial in one attempt, so the site's
  // speculative abort ratio is 1.0 with capacity >= half of aborts: plan
  // goes Serial.
  h.run_phase(site, "capacity@write=1", 4, 64);
  EXPECT_EQ(ctl::site_plan(site.id).action, ctl::SiteAction::Serial);
  EXPECT_EQ(ctl::site_plan(site.id).dominant, AbortCause::Capacity);

  // Phase 2 — healthy: probes widen and the plan returns to Auto.
  h.run_phase(site, nullptr, 8, 64);
  EXPECT_EQ(ctl::site_plan(site.id).action, ctl::SiteAction::Auto);

  // Phase 3 — conflict-dominated: the abort ratio lands between release
  // and trip, so the plan is Boost with a backoff disposition, not Serial.
  h.run_phase(site, "conflict@read=0.7", 6, 64);
  EXPECT_EQ(ctl::site_plan(site.id).action, ctl::SiteAction::Boost);
  EXPECT_EQ(ctl::site_plan(site.id).dominant, AbortCause::Conflict);

  // Phase 4 — healthy again: Boost is re-classified straight to Auto (no
  // probe ladder needed for a non-serial plan).
  h.run_phase(site, nullptr, 4, 64);
  EXPECT_EQ(ctl::site_plan(site.id).action, ctl::SiteAction::Auto);

  // Flaps stay bounded across all four phases (no global trip even
  // happened: per-site plans moved, the state machine stayed Normal).
  EXPECT_EQ(ctl::status().state, ctl::State::Normal);
  EXPECT_EQ(ctl::status().flaps, 0u);
  EXPECT_LE(ctl::status().plan_changes, 6u);
}

TEST(ControlChaos, DegradedEntryAndExitUnderRealStorm) {
  ModeGuard mg(ExecMode::StmCondVar);
  CtlGuard cg;
  config().ctl_mode_switch = false;
  config().stm_max_retries = 6;
  // Raise the governor's own storm thresholds out of the way so the test
  // exercises the controller's degraded machinery, not the storm gate.
  config().storm_on_rate = 1.1;
  ChaosHarness h(7);
  const obs::TxSite& site = TLE_TX_SITE("ctl_chaos/storm");

  // Spurious storm: nearly every speculative attempt dies, immediate
  // retries burn the budget, abort ratio ~1 -> sustained trip.
  h.run_phase(site, "spurious@commit=0.97", 3, 80);
  EXPECT_EQ(ctl::status().state, ctl::State::Degraded);
  EXPECT_EQ(ctl::status().degraded_enters, 1u);
  EXPECT_GE(aggregate_stats().ctl_forced_serial, 0u);

  // Storm clears: hold, probes, widen, full recovery — all on live traffic.
  h.run_phase(site, nullptr, 12, 80);
  EXPECT_EQ(ctl::status().state, ctl::State::Normal);
  EXPECT_EQ(ctl::status().degraded_exits, 1u);
  // Recovery probes actually speculated on the way out.
  EXPECT_GT(aggregate_stats().ctl_probe_attempts, 0u);
}

// The whole chaos scenario, run twice under the same seed with single-
// threaded traffic and deterministic windows, must produce a byte-identical
// decision trace.
TEST(ControlChaos, PinnedSeedDoubleRunTraceIsByteIdentical) {
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    ModeGuard mg(ExecMode::StmCondVar);
    CtlGuard cg;
    config().ctl_mode_switch = false;
    config().stm_max_retries = 4;
    config().storm_on_rate = 1.1;
    ChaosHarness h(0xF417);
    const obs::TxSite& site = TLE_TX_SITE("ctl_chaos/replay");
    h.run_phase(site, "capacity@write=1", 4, 64);
    h.run_phase(site, nullptr, 8, 64);
    h.run_phase(site, "spurious@commit=0.97", 3, 80);
    h.run_phase(site, nullptr, 12, 80);
    traces[run] = ctl::decision_trace_json();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_GT(traces[0].size(), 2u + sizeof("tle-ctl-trace/v1"));
  EXPECT_EQ(traces[0], traces[1]);
}

// ---------------------------------------------------------------------------
// Controller state in the metrics export
// ---------------------------------------------------------------------------

TEST(ControlExport, MetricsJsonCarriesControllerBlockAndDecisions) {
  CtlGuard cg;
  reset_stats();
  obs::reset_site_profiles();
  obs::metrics_enable(true);
  obs::metrics_set_deterministic(true);
  obs::metrics_reset();
  std::uint64_t idx = 0;
  feed(idx, 2, [](obs::MetricsWindow& w) {
    add_site(w, 2, 100, 5, kConf, 95);
  });
  ASSERT_EQ(ctl::status().state, ctl::State::Degraded);
  const obs::MetricsWindow w = obs::metrics_tick();
  EXPECT_TRUE(w.ctl.enabled);
  EXPECT_STREQ(w.ctl.state, "degraded");
  EXPECT_EQ(w.ctl.degraded_enters, 1u);
  ASSERT_FALSE(w.ctl.decisions.empty());
  const std::string json = obs::metrics_json(w);
  EXPECT_NE(json.find("\"ctl\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"degraded-enter\""), std::string::npos);
  EXPECT_NE(json.find("\"starved_sites\":["), std::string::npos);

  // A second tick must not re-emit the same decisions (cursor advanced).
  const obs::MetricsWindow w2 = obs::metrics_tick();
  EXPECT_TRUE(w2.ctl.decisions.empty());

  obs::metrics_set_deterministic(false);
  obs::metrics_enable(false);
  obs::profile_enable(false);
}

TEST(ControlExport, CtlBlockPresentEvenWhenDisabled) {
  // No CtlGuard: controller off. The block must still be in every record so
  // stream checkers can require it unconditionally.
  reset_stats();
  obs::metrics_enable(true);
  obs::metrics_reset();
  const std::string json = obs::metrics_json(obs::metrics_tick());
  EXPECT_NE(json.find("\"ctl\":{\"enabled\":false"), std::string::npos);
  obs::metrics_enable(false);
  obs::profile_enable(false);
}

TEST(ControlExport, PrometheusCarriesControllerFamilies) {
  CtlGuard cg;
  const std::string prom = obs::prometheus_text();
  EXPECT_NE(prom.find("tle_ctl_evals_total"), std::string::npos);
  EXPECT_NE(prom.find("tle_ctl_flaps_total"), std::string::npos);
  EXPECT_NE(prom.find("tle_ctl_state"), std::string::npos);
}

TEST(ControlExport, StarvedSitesRankWatchdogVictims) {
  CtlGuard cg;
  reset_stats();
  obs::reset_site_profiles();
  obs::metrics_enable(true);
  obs::metrics_reset();
  const obs::TxSite& site = TLE_TX_SITE("ctl_export/starved");
  // Manufacture a watchdog escalation at a known site.
  obs::site_counters(my_slot_id(), site.id)
      .watchdog_escalations.fetch_add(2, std::memory_order_relaxed);
  const obs::MetricsWindow w = obs::metrics_tick();
  const std::string json = obs::metrics_json(w);
  EXPECT_NE(json.find("\"starved_sites\":[{\"id\":"), std::string::npos);
  EXPECT_NE(json.find("ctl_export/starved"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_total\":2"), std::string::npos);
  obs::metrics_enable(false);
  obs::profile_enable(false);
}

// ---------------------------------------------------------------------------
// Shutdown ordering (the sampler/controller teardown contract)
// ---------------------------------------------------------------------------

TEST(ControlShutdown, MetricsStopJoinsControllerBeforeFinalFlush) {
  CtlGuard cg;
  config().metrics_period_ms = 5;
  ctl::start();
  ASSERT_TRUE(ctl::running());
  ASSERT_TRUE(obs::metrics_sampler_running());  // start() pulled metrics up
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // metrics_stop() must join the controller thread BEFORE the residual
  // final window, so no evaluation can land after the stream's last record.
  obs::metrics_stop();
  EXPECT_FALSE(ctl::running());
  EXPECT_FALSE(obs::metrics_sampler_running());

  const std::uint64_t evals_at_stop = ctl::status().evals;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(ctl::status().evals, evals_at_stop);

  // Idempotence both ways, and a clean restart still works.
  obs::metrics_stop();
  ctl::stop();
  ctl::start();
  EXPECT_TRUE(ctl::running());
  obs::metrics_stop();
  EXPECT_FALSE(ctl::running());
  obs::metrics_enable(false);
  obs::profile_enable(false);
}

// The controller thread never re-plans from the shutdown residue: a
// final_flush window is skipped even when fed directly.
TEST(ControlShutdown, FinalFlushWindowNeverReplans) {
  CtlGuard cg;
  std::uint64_t idx = 0;
  obs::MetricsWindow w = mkwin(idx++);
  add_site(w, 3, 100, 5, kConf, 95);
  w.final_flush = true;
  ctl::on_window(w);
  EXPECT_EQ(ctl::status().evals, 0u);
  EXPECT_EQ(ctl::status().state, ctl::State::Normal);
}

}  // namespace
}  // namespace tle
