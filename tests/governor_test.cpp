// Tests for the contention governor (cause-aware retry policy and the
// starvation watchdog):
//   * the default disposition table and every TxnAttrs override,
//   * capacity/unsafe -> serial in ONE attempt (no futile retries),
//   * serial-pending drains that consume no retry budget (lemming fix),
//   * drain timeouts that do charge budget,
//   * retry-limit semantics: 0 = one attempt then serial, -1 = inherit,
//   * the htm_retries fix (aborts followed by another hardware attempt),
//   * watchdog escalation by attempts cap and by wall-clock deadline,
//   * validate_config() rejection of malformed governor knobs,
//   * byte-identical governor counters across two same-seed runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/governor/governor.hpp"
#include "tm/obs/export.hpp"
#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "tm/serial_lock.hpp"
#include "tm/tm.hpp"

namespace tle {
namespace {

using testing::kElisionModes;
using testing::ModeGuard;

/// Every governor test starts with a clean slate: no fault plan and zeroed
/// stats. Clears the plan on exit too so it cannot leak into the next suite.
struct GovGuard {
  GovGuard() {
    fault::clear();
    reset_stats();
  }
  ~GovGuard() { fault::clear(); }
};

StatsSnapshot stats() { return aggregate_stats(); }

/// The cause-blind retry policy as a TxnAttrs table: every cause but Unsafe
/// backs off and charges the budget, so the section goes serial after the
/// retry limit whatever its aborts were.
TxnAttrs cause_blind() {
  TxnAttrs attrs;
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c)
    if (static_cast<AbortCause>(c) != AbortCause::Unsafe)
      attrs.with(static_cast<AbortCause>(c), gov::Disposition::Backoff);
  return attrs;
}

// ---------------------------------------------------------------------------
// Policy table
// ---------------------------------------------------------------------------

TEST(GovernorPolicy, DefaultDispositionTable) {
  using gov::Disposition;
  EXPECT_EQ(gov::default_disposition(AbortCause::Capacity),
            Disposition::Serial);
  EXPECT_EQ(gov::default_disposition(AbortCause::Unsafe), Disposition::Serial);
  EXPECT_EQ(gov::default_disposition(AbortCause::SerialPending),
            Disposition::Drain);
  EXPECT_EQ(gov::default_disposition(AbortCause::Spurious),
            Disposition::Immediate);
  EXPECT_EQ(gov::default_disposition(AbortCause::Conflict),
            Disposition::Backoff);
  EXPECT_EQ(gov::default_disposition(AbortCause::Validation),
            Disposition::Backoff);
  EXPECT_EQ(gov::default_disposition(AbortCause::UserExplicit),
            Disposition::Backoff);
}

// A capacity abort escalates after exactly one speculative attempt in every
// elision mode: retrying a too-big footprint is futile by definition.
TEST(GovernorPolicy, CapacitySerialInOneAttemptAllModes) {
  for (ExecMode mode : kElisionModes) {
    ModeGuard g(mode);
    GovGuard gg;
    config().htm_max_retries = 8;  // plenty of budget the policy must ignore
    config().stm_max_retries = 8;
    ASSERT_TRUE(fault::install_spec("capacity@write=1", 42));
    tm_var<long> v(0);
    atomic_do([&](TxContext& tx) { tx.write(v, 1L); });
    const StatsSnapshot s = stats();
    EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 1u)
        << to_string(mode);
    EXPECT_EQ(s.gov_serial_immediate, 1u) << to_string(mode);
    EXPECT_EQ(s.serial_fallbacks, 1u) << to_string(mode);
    EXPECT_EQ(s.serial_commits, 1u) << to_string(mode);
    EXPECT_EQ(s.htm_retries, 0u) << to_string(mode);
    EXPECT_EQ(v.unsafe_get(), 1);
  }
}

// Spurious aborts retry immediately but still consume budget; with
// htm_max_retries = N the transaction makes exactly N hardware attempts.
// Also the htm_retries fix: the abort that goes serial is NOT a retry.
TEST(GovernorPolicy, SpuriousImmediateRetriesConsumeBudget) {
  ModeGuard g(ExecMode::Htm);
  GovGuard gg;
  config().htm_max_retries = 3;
  config().htm_spurious_abort_rate = 1.0;  // every hardware attempt dies
  tm_var<long> v(0);
  atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Spurious)], 3u);
  EXPECT_EQ(s.gov_immediate_retries, 2u);  // aborts 1 and 2; abort 3 -> serial
  EXPECT_EQ(s.htm_retries, 2u);            // retries = aborts - the fallback
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
}

TEST(GovernorPolicy, ConflictBacksOffThenSerial) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 2;
  ASSERT_TRUE(fault::install_spec("conflict@read=1", 42));
  tm_var<long> v(0);
  atomic_do([&](TxContext& tx) { (void)tx.read(v); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Conflict)], 2u);
  EXPECT_EQ(s.gov_backoffs, 1u);  // abort 1 backs off; abort 2 -> serial
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
}

// ---------------------------------------------------------------------------
// Retry-limit semantics (the clamp fix)
// ---------------------------------------------------------------------------

// Global limit 0 = one speculative attempt, then serial — not "retry
// forever" (the old `limit > 0 ? limit : 1` clamp made 0 behave like 1).
TEST(GovernorPolicy, ZeroGlobalLimitMeansOneAttempt) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 0;
  ASSERT_TRUE(fault::install_spec("conflict@read=1", 42));
  tm_var<long> v(0);
  atomic_do([&](TxContext& tx) { (void)tx.read(v); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts_total(), 1u);
  EXPECT_EQ(s.gov_backoffs, 0u);  // no budget left: no backoff, no retry
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
}

// Same semantics through TxnAttrs, under the default table and the
// cause-blind one.
TEST(GovernorPolicy, AttrMaxRetriesZeroBothPolicies) {
  for (bool blind : {false, true}) {
    ModeGuard g(ExecMode::StmSpin);
    GovGuard gg;
    config().stm_max_retries = 8;  // the attr must override this
    ASSERT_TRUE(fault::install_spec("conflict@read=1", 42));
    tm_var<long> v(0);
    TxnAttrs attrs = blind ? cause_blind() : TxnAttrs{};
    attrs.max_retries = 0;
    atomic_do(attrs, [&](TxContext& tx) { (void)tx.read(v); });
    const StatsSnapshot s = stats();
    EXPECT_EQ(s.aborts_total(), 1u) << "blind=" << blind;
    EXPECT_EQ(s.serial_fallbacks, 1u) << "blind=" << blind;
    EXPECT_EQ(s.serial_commits, 1u) << "blind=" << blind;
  }
}

// htm_retries counting under the cause-blind table: N aborts with limit N
// means N-1 retries plus one serial fallback (the old code counted N).
TEST(GovernorPolicy, LegacyHtmRetriesExcludeTheFallbackAbort) {
  ModeGuard g(ExecMode::Htm);
  GovGuard gg;
  config().htm_max_retries = 2;
  config().htm_spurious_abort_rate = 1.0;
  tm_var<long> v(0);
  atomic_do(cause_blind(), [&](TxContext& tx) { tx.fetch_add(v, 1L); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Spurious)], 2u);
  EXPECT_EQ(s.htm_retries, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
}

// ---------------------------------------------------------------------------
// TxnAttrs disposition overrides
// ---------------------------------------------------------------------------

TEST(GovernorPolicy, AttrOverridesCapacityBackToBackoff) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 2;
  ASSERT_TRUE(fault::install_spec("capacity@write=1", 42));
  tm_var<long> v(0);
  TxnAttrs attrs;
  attrs.with(AbortCause::Capacity, gov::Disposition::Backoff);
  atomic_do(attrs, [&](TxContext& tx) { tx.write(v, 1L); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 2u);
  EXPECT_EQ(s.gov_serial_immediate, 0u);
  EXPECT_EQ(s.gov_backoffs, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
}

TEST(GovernorPolicy, AttrOverridesConflictToSerial) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 8;
  ASSERT_TRUE(fault::install_spec("conflict@read=1", 42));
  tm_var<long> v(0);
  TxnAttrs attrs;
  attrs.with(AbortCause::Conflict, gov::Disposition::Serial);
  atomic_do(attrs, [&](TxContext& tx) { (void)tx.read(v); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts_total(), 1u);
  EXPECT_EQ(s.gov_serial_immediate, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
}

// The attrs are scoped: the next plain transaction is back on the defaults.
TEST(GovernorPolicy, AttrsDoNotLeakToNextTransaction) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 8;
  ASSERT_TRUE(fault::install_spec("capacity@write=1", 42));
  tm_var<long> v(0);
  TxnAttrs attrs;
  attrs.with(AbortCause::Capacity, gov::Disposition::Backoff);
  attrs.max_retries = 1;
  atomic_do(attrs, [&](TxContext& tx) { tx.write(v, 1L); });
  atomic_do([&](TxContext& tx) { tx.write(v, 2L); });  // default policy again
  const StatsSnapshot s = stats();
  // First txn: 1 capacity abort, backoff path skipped (budget 1 >= 1).
  // Second txn: capacity -> serial at once. Two aborts total, none retried.
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 2u);
  EXPECT_EQ(s.gov_serial_immediate, 1u);
  EXPECT_EQ(s.serial_fallbacks, 2u);
  EXPECT_EQ(v.unsafe_get(), 2);
}

// ---------------------------------------------------------------------------
// Serial-pending drain (the lemming fix)
// ---------------------------------------------------------------------------

// A transaction aborted by a serial writer waits the serial window out
// without consuming retry budget: even with stm_max_retries = 1 it commits
// SPECULATIVELY once the writer leaves, never falling back to serial.
TEST(GovernorDrain, SerialPendingDrainsWithoutBudgetBurn) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 1;  // ANY budget-consuming abort would go serial
  config().serial_drain_timeout_ns = 1'000'000'000;  // don't time out
  config().watchdog_deadline_ns = 0;  // the orchestrated pause must not trip it
  tm_var<long> v(0);
  std::atomic<bool> reader_in{false};
  std::atomic<bool> saw_pending{false};
  std::atomic<bool> release{false};
  std::atomic<bool> reader_done{false};

  // Begin blocks in read_lock while serial is held, so the abort we need
  // only happens when the writer arrives MID-transaction: the reader parks
  // inside its body until it can see the writer's pending flag, and its
  // next instrumented access dies with SerialPending.
  std::thread reader([&] {
    atomic_do([&](TxContext& tx) {
      tx.fetch_add(v, 10L);
      reader_in.store(true, std::memory_order_release);
      while (!saw_pending.load(std::memory_order_acquire)) {
        if (serial_lock().serial_requested())
          saw_pending.store(true, std::memory_order_release);
        else
          std::this_thread::yield();
      }
      (void)tx.read(v);  // first attempt: SerialPending abort fires here
    });
    reader_done.store(true, std::memory_order_release);
  });
  while (!reader_in.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread writer([&] {
    synchronized_do([&](TxContext& tx) {
      tx.fetch_add(v, 1L);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  // The reader must be parked in a drain wait, not running serial (it
  // cannot: the writer holds the token) and not burning budget.
  while (stats().gov_drain_waits == 0) std::this_thread::yield();
  EXPECT_FALSE(reader_done.load(std::memory_order_acquire));
  release.store(true, std::memory_order_release);
  writer.join();
  reader.join();

  const StatsSnapshot s = stats();
  EXPECT_GE(s.gov_drain_waits, 1u);
  EXPECT_EQ(s.gov_drain_timeouts, 0u);
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::SerialPending)], 1u);
  EXPECT_EQ(s.serial_fallbacks, 0u);  // the reader stayed speculative
  EXPECT_EQ(s.commits, 1u);           // and committed as a transaction
  EXPECT_EQ(s.serial_commits, 1u);    // the synchronized_do writer
  EXPECT_EQ(v.unsafe_get(), 11);
}

// When the serial window outlives serial_drain_timeout_ns the drain charges
// the abort like any other, so a pathological writer stream still drives the
// waiter to its own serial slot instead of parking it forever.
TEST(GovernorDrain, DrainTimeoutChargesBudget) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 1;
  config().serial_drain_timeout_ns = 1;  // time out effectively immediately
  config().watchdog_deadline_ns = 0;  // the orchestrated pause must not trip it
  tm_var<long> v(0);
  std::atomic<bool> reader_in{false};
  std::atomic<bool> saw_pending{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    atomic_do([&](TxContext& tx) {
      tx.fetch_add(v, 10L);
      reader_in.store(true, std::memory_order_release);
      while (!saw_pending.load(std::memory_order_acquire)) {
        if (serial_lock().serial_requested())
          saw_pending.store(true, std::memory_order_release);
        else
          std::this_thread::yield();
      }
      (void)tx.read(v);  // first attempt: SerialPending abort fires here
    });
  });
  while (!reader_in.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread writer([&] {
    synchronized_do([&](TxContext& tx) {
      tx.fetch_add(v, 1L);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  // The reader times out of its drain, burns its only budget unit, and
  // queues for the serial token; release the writer so it can have it.
  while (stats().gov_drain_timeouts == 0) std::this_thread::yield();
  release.store(true, std::memory_order_release);
  writer.join();
  reader.join();

  const StatsSnapshot s = stats();
  EXPECT_GE(s.gov_drain_timeouts, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 2u);  // writer + the fallen-back reader
  EXPECT_EQ(v.unsafe_get(), 11);
}

// ---------------------------------------------------------------------------
// Starvation watchdog
// ---------------------------------------------------------------------------

// Injected serial-pending aborts with nothing actually pending are the
// governor's blind spot: every drain succeeds instantly and budget-free, so
// without the watchdog the loop runs forever. The attempts cap breaks it
// deterministically: exactly watchdog_max_attempts aborts, then serial.
TEST(GovernorWatchdog, AttemptsCapBreaksBudgetFreeLivelock) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  config().stm_max_retries = 1000;
  config().watchdog_max_attempts = 5;
  ASSERT_TRUE(fault::install_spec("serial-pending@begin=1", 42));
  tm_var<long> v(0);
  atomic_do(TLE_TX_SITE("gov/starved"),
            [&](TxContext& tx) { tx.write(v, 1L); });
  const StatsSnapshot s = stats();
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::SerialPending)], 5u);
  EXPECT_EQ(s.gov_drain_waits, 4u);  // aborts 1-4 drained; abort 5 escalated
  EXPECT_EQ(s.gov_watchdog_escalations, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
}

// The wall-clock deadline catches the same livelock when the attempts cap is
// off; and the starvation report ranks the site that needed rescuing.
TEST(GovernorWatchdog, DeadlineEscalatesAndReportNamesTheSite) {
  ModeGuard g(ExecMode::StmSpin);
  GovGuard gg;
  obs::reset_site_profiles();
  obs::profile_enable(true);
  config().stm_max_retries = 1 << 20;
  config().watchdog_max_attempts = 0;      // attempts cap disabled
  config().watchdog_deadline_ns = 2'000'000;  // 2 ms
  ASSERT_TRUE(fault::install_spec("serial-pending@begin=1", 42));
  tm_var<long> v(0);
  atomic_do(TLE_TX_SITE("gov/deadline_starved"),
            [&](TxContext& tx) { tx.write(v, 1L); });
  const StatsSnapshot s = stats();
  EXPECT_GE(s.gov_watchdog_escalations, 1u);
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
  const std::string report = gov::starvation_report();
  EXPECT_NE(report.find("gov/deadline_starved"), std::string::npos) << report;
  obs::profile_enable(false);
}

// ---------------------------------------------------------------------------
// validate_config
// ---------------------------------------------------------------------------

TEST(GovernorConfig, ValidateRejectsMalformedKnobs) {
  EXPECT_EQ(validate_config(RuntimeConfig{}), nullptr);

  RuntimeConfig c;
  c.htm_max_retries = -1;
  EXPECT_NE(validate_config(c), nullptr);

  c = RuntimeConfig{};
  c.stm_max_retries = -7;
  EXPECT_NE(validate_config(c), nullptr);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// The governor-decision fingerprint of one run.
struct GovTrace {
  std::uint64_t serial_immediate, backoffs, immediate_retries, drain_waits;
  std::uint64_t watchdog, aborts, fallbacks, commits;
  bool operator==(const GovTrace&) const = default;
};

GovTrace fingerprint() {
  const StatsSnapshot s = aggregate_stats();
  return {s.gov_serial_immediate, s.gov_backoffs,   s.gov_immediate_retries,
          s.gov_drain_waits,      s.gov_watchdog_escalations,
          s.aborts_total(),       s.serial_fallbacks, s.commits};
}

// Same seed, same per-thread workload => the governor makes the identical
// decision sequence. Fresh threads pin the fault stream.
TEST(GovernorDeterminism, SameSeedSameDecisions) {
  ModeGuard g(ExecMode::Htm);
  GovGuard gg;
  config().htm_max_retries = 4;
  tm_var<long> v(0);

  auto run = [&] {
    reset_stats();
    ASSERT_TRUE(fault::install_spec(
        "conflict@read=0.2,spurious@commit=0.1,capacity@write=0.02", 1234));
    std::thread t([&] {
      fault::set_thread_stream(9);
      for (int i = 0; i < 800; ++i)
        atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
    });
    t.join();
    fault::clear();
  };

  GovTrace first{}, second{};
  run();
  first = fingerprint();
  run();
  second = fingerprint();
  EXPECT_GT(first.aborts, 0u);
  EXPECT_EQ(first.commits + first.fallbacks, 800u);
  EXPECT_TRUE(first == second);
}

}  // namespace
}  // namespace tle
