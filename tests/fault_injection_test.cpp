// Tests for the deterministic fault-injection & schedule-perturbation
// harness (tm/fault): plan parsing, the ExecMode × AbortCause injection
// matrix with recovery assertions, seed determinism, forced serial/flush,
// and the condvar regressions the perturbation hooks make drivable — the
// monotonic-clock timed wait, the intent-bounded signal bank, the
// commit->enqueue and timeout->withdraw race windows, the serial lock's
// read back-out missed-wakeup, and the grace requester's lost wake-up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sync/tx_condvar.hpp"
#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/registry.hpp"
#include "tm/tm.hpp"

namespace {

using namespace std::chrono_literals;
using tle::AbortCause;
using tle::aggregate_stats;
using tle::atomic_do;
using tle::config;
using tle::critical;
using tle::elidable_mutex;
using tle::ExecMode;
using tle::synchronized_do;
using tle::tm_var;
using tle::tx_condvar;
using tle::TxContext;
using tle::testing::kElisionModes;
using tle::testing::ModeGuard;
using tle::testing::run_threads;
namespace fault = tle::fault;

/// Every test starts disarmed with zeroed stats (the binary may be launched
/// with TLE_FAULT_SEED in the env) and leaves no plan behind.
struct PlanGuard {
  PlanGuard() {
    fault::clear();
    tle::reset_stats();
  }
  ~PlanGuard() { fault::clear(); }
};

int hook_index(fault::Hook h) { return static_cast<int>(h); }

std::uint64_t injected_for_cause(const fault::Counts& c, AbortCause cause) {
  std::uint64_t t = 0;
  for (int h = 0; h < fault::kHookCount; ++h)
    t += c.injected[h][static_cast<int>(cause)];
  return t;
}

long read_plain(tm_var<long>& v) {
  long out = 0;
  atomic_do([&](TxContext& tx) { out = tx.read(v); });
  return out;
}

// ---------------------------------------------------------------------------
// Plan parsing & activation
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, SpecParsingAcceptsDefaultRejectsMalformed) {
  PlanGuard pg;
  EXPECT_FALSE(fault::active());
  EXPECT_TRUE(fault::install_spec(fault::default_spec(), 1));
  EXPECT_TRUE(fault::active());
  fault::clear();
  EXPECT_FALSE(fault::active());

  EXPECT_FALSE(fault::install_spec("bogus@commit=0.1", 1));
  EXPECT_FALSE(fault::install_spec("spurious@nowhere=0.1", 1));
  EXPECT_FALSE(fault::install_spec("spurious@commit=1.5", 1));
  // NaN fails both range comparisons, so it needs its own rejection.
  EXPECT_FALSE(fault::install_spec("conflict@read=nan", 1));
  EXPECT_FALSE(fault::install_spec("delay@epoch_exit=nan/1000", 1));
  EXPECT_FALSE(fault::install_spec("spurious@commit", 1));
  // Semantic restrictions: forced serial is a begin decision, forced flush a
  // post-commit one, aborts fire only at speculative decision points, and
  // only Delay rules take a /delay_ns suffix.
  EXPECT_FALSE(fault::install_spec("serial@read=0.1", 1));
  EXPECT_FALSE(fault::install_spec("flush@begin=0.1", 1));
  EXPECT_FALSE(fault::install_spec("spurious@epoch_scan=0.1", 1));
  EXPECT_FALSE(fault::install_spec("spurious@commit=0.1/500", 1));
  EXPECT_FALSE(fault::active());

  EXPECT_TRUE(fault::install_spec(
      "yield@epoch_scan=0.5,delay@grace_wait=1/1000,conflict@read=0.25", 1));
  EXPECT_TRUE(fault::active());
  fault::clear();
  EXPECT_FALSE(fault::install_spec("validation@post=0.5", 1));
}

// ---------------------------------------------------------------------------
// Injection matrix: every elision mode recovers from every injectable cause
// ---------------------------------------------------------------------------

TEST(FaultInjectTest, EveryModeEveryCauseRecoversAndCounts) {
  struct CauseSpec {
    AbortCause cause;
    const char* spec;
  };
  const CauseSpec kCases[] = {
      {AbortCause::Spurious, "spurious@commit=0.05,spurious@begin=0.01"},
      {AbortCause::Conflict, "conflict@read=0.05"},
      {AbortCause::Validation, "validation@commit=0.05"},
      {AbortCause::Capacity, "capacity@write=0.05"},
      {AbortCause::SerialPending, "serial-pending@begin=0.05"},
  };
  for (ExecMode mode : kElisionModes) {
    for (const CauseSpec& c : kCases) {
      SCOPED_TRACE(std::string(tle::to_string(mode)) + " / " + c.spec);
      ModeGuard g(mode);
      PlanGuard pg;
      tm_var<long> counter{0};
      ASSERT_TRUE(fault::install_spec(c.spec, 0xF417));
      run_threads(4, [&](int tid) {
        fault::set_thread_stream(static_cast<std::uint32_t>(100 + tid));
        for (int i = 0; i < 300; ++i)
          atomic_do([&](TxContext& tx) { tx.fetch_add(counter, 1L); });
      });
      const fault::Counts counts = fault::snapshot();
      fault::clear();
      const auto s = aggregate_stats();
      // Recovery: every logical transaction still committed exactly once.
      EXPECT_EQ(s.commits + s.serial_commits, 4u * 300u);
      EXPECT_EQ(read_plain(counter), 4 * 300);
      // Accounting: the plan fired, only the requested cause was injected,
      // the global and TxStats views agree, and every injected abort shows
      // up in the ordinary per-cause abort breakdown.
      EXPECT_GT(counts.injected_total(), 0u);
      EXPECT_EQ(injected_for_cause(counts, c.cause), counts.injected_total());
      EXPECT_EQ(s.faults_injected, counts.injected_total());
      EXPECT_GE(s.aborts[static_cast<int>(c.cause)],
                injected_for_cause(counts, c.cause));
    }
  }
}

TEST(FaultInjectTest, LockModeHasNoSpeculativeDecisionPoints) {
  ModeGuard g(ExecMode::Lock);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec(
      "spurious@commit=1,conflict@read=1,capacity@write=1,"
      "serial-pending@begin=1",
      7));
  elidable_mutex m;
  tm_var<long> v{0};
  for (int i = 0; i < 50; ++i)
    critical(m, [&](TxContext& tx) { tx.fetch_add(v, 1L); });
  const fault::Counts counts = fault::snapshot();
  fault::clear();
  const auto s = aggregate_stats();
  EXPECT_EQ(counts.injected_total(), 0u);
  EXPECT_EQ(s.faults_injected, 0u);
  EXPECT_EQ(s.lock_sections, 50u);
  EXPECT_EQ(read_plain(v), 50);
}

TEST(FaultInjectTest, ForceSerialRunsIrrevocably) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec("serial@begin=1", 11));
  tm_var<long> v{0};
  for (int i = 0; i < 50; ++i)
    atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
  const fault::Counts counts = fault::snapshot();
  fault::clear();
  const auto s = aggregate_stats();
  EXPECT_EQ(s.serial_commits, 50u);
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.txn_starts, 0u);  // never even began speculating
  EXPECT_EQ(s.fault_forced_serial, 50u);
  EXPECT_EQ(counts.forced_serial, 50u);
  EXPECT_EQ(read_plain(v), 50);
}

TEST(FaultInjectTest, ForceFlushDrainsLimboEveryCommit) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec("flush@post=1", 12));
  std::vector<void*> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(::operator new(64));
  tm_var<long> v{0};
  for (void* p : blocks)
    atomic_do([&](TxContext& tx) {
      tx.write(v, 1L);
      tx.free(p);
    });
  const fault::Counts counts = fault::snapshot();
  fault::clear();
  const auto s = aggregate_stats();
  EXPECT_EQ(s.tm_frees, 20u);
  EXPECT_EQ(s.fault_forced_flush, 20u);
  EXPECT_EQ(counts.forced_flush, 20u);
  EXPECT_GT(s.limbo_drained, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same workload -> byte-identical event counts
// ---------------------------------------------------------------------------

TEST(FaultDeterminismTest, SameSeedSameSequenceSingleThreadStm) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  tm_var<long> v{0};
  auto run = [&]() -> fault::Counts {
    EXPECT_TRUE(fault::install_spec(
        "spurious@commit=0.05,conflict@read=0.02,validation@commit=0.01,"
        "capacity@write=0.01,serial-pending@begin=0.01",
        0xDE7));
    fault::set_thread_stream(7);
    for (int i = 0; i < 3000; ++i)
      atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
    const fault::Counts c = fault::snapshot();
    fault::clear();
    return c;
  };
  const fault::Counts first = run();
  const fault::Counts second = run();
  EXPECT_GT(first.injected_total(), 0u);
  EXPECT_TRUE(first == second);
  // Every injected abort rolled back: each increment landed exactly once.
  EXPECT_EQ(read_plain(v), 2 * 3000);
}

TEST(FaultDeterminismTest, SameSeedSameSequenceDisjointThreadsHtm) {
  ModeGuard g(ExecMode::Htm);
  PlanGuard pg;
  config().htm_spurious_abort_rate = 0.0;
  // Keep every retry speculative: with no serial fallback and disjoint data
  // there are no organic aborts, so cross-thread timing cannot change the
  // per-thread event counts and the two runs must match exactly. Injected
  // capacity aborts back off instead of going serial (a serial entry would
  // abort the other threads), the budget never runs out, and the watchdog
  // never escalates.
  config().htm_max_retries = 1 << 20;
  config().watchdog_max_attempts = 0;
  config().watchdog_deadline_ns = 0;
  const tle::TxnAttrs attrs = tle::TxnAttrs{}.with(
      AbortCause::Capacity, tle::gov::Disposition::Backoff);
  // Each thread's variable gets its own 512-byte block on its own commit
  // stripe. Sharing one stripe lets a slow commit (sanitizer timing) expire
  // another thread's bounded stripe wait: an organic StripeBusy abort that
  // shifts that thread's event counts.
  struct alignas(512) Block {
    tm_var<long> v;
  };
  Block blocks[32];
  bool taken[tle::kHtmStripeMax] = {};
  std::vector<tm_var<long>*> vars;
  for (Block& b : blocks) {
    const unsigned s = tle::stripe_of(b.v);
    if (vars.size() < 4 && !taken[s]) {
      taken[s] = true;
      vars.push_back(&b.v);
    }
  }
  ASSERT_EQ(vars.size(), 4u) << "32 blocks cover fewer than 4 stripes";
  auto run = [&]() -> fault::Counts {
    EXPECT_TRUE(fault::install_spec(
        "spurious@commit=0.05,conflict@read=0.02,capacity@write=0.01",
        0xBEEF));
    run_threads(4, [&](int tid) {
      fault::set_thread_stream(static_cast<std::uint32_t>(200 + tid));
      for (int i = 0; i < 1500; ++i)
        atomic_do(attrs,
                  [&](TxContext& tx) { tx.fetch_add(*vars[tid], 1L); });
    });
    const fault::Counts c = fault::snapshot();
    fault::clear();
    return c;
  };
  const fault::Counts first = run();
  const fault::Counts second = run();
  EXPECT_GT(first.injected_total(), 0u);
  EXPECT_TRUE(first == second);
}

// ---------------------------------------------------------------------------
// Schedule perturbation: the serial lock's read back-out window
// ---------------------------------------------------------------------------

// Deterministic re-trigger of the missed-wakeup the back-out path used to
// have: a backing-out reader dropped its flag with a plain store and no
// notify, so a writer that had just parked on it slept forever. The plan
// widens the raise-flag -> see-writer -> back-out window to 2ms and the tiny
// spin limit makes the writer park inside it; without the back-out's
// release-store + notify handshake this deadlocks (and times out).
TEST(FaultPerturbTest, SerialWriterSurvivesDelayedReaderBackout) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  config().park_spin_limit = 1;
  ASSERT_TRUE(fault::install_spec("delay@sl_read_backout=1/2000000", 13));
  tm_var<long> v{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&, r] {
      fault::set_thread_stream(static_cast<std::uint32_t>(50 + r));
      while (!stop.load(std::memory_order_relaxed))
        atomic_do([&](TxContext& tx) { (void)tx.read(v); });
    });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  long iter = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         fault::snapshot().delays_total() < 8) {
    synchronized_do([&](TxContext& tx) { tx.write(v, ++iter); });
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(fault::snapshot().delays_total(), 0u);
  EXPECT_GT(aggregate_stats().fault_delays, 0u);
}

// ---------------------------------------------------------------------------
// Schedule perturbation: the grace scanner's publish window
// ---------------------------------------------------------------------------

/// A thread holding a transaction open until released.
class OpenPeer {
 public:
  explicit OpenPeer(tm_var<long>& v)
      : t_([this, &v] {
          atomic_do([&](TxContext& tx) {
            (void)tx.read(v);
            in_.store(true);
            while (!release_.load()) std::this_thread::yield();
          });
        }) {
    while (!in_.load()) std::this_thread::yield();
  }
  ~OpenPeer() { close(); }
  void close() {
    release_.store(true);
    if (t_.joinable()) t_.join();
  }

 private:
  std::atomic<bool> in_{false};
  std::atomic<bool> release_{false};
  std::thread t_;
};

/// Yield until `done()` holds or `limit` passes; returns done().
template <typename P>
bool await_for(std::chrono::milliseconds limit, P&& done) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  return done();
}

// Deterministic re-trigger of a lost wake-up in the shared grace period: a
// requester that piggybacked after the scanner published its pass but
// before it dropped the scanner token parked on a `completed` value that no
// pass in flight would change, and slept until some other thread scanned.
// The plan holds the scanner in that window, and a peer in flight keeps
// the requester off the quiet fast path. A stranded requester fails the
// test and is then freed by one more grace pass, so a regression fails
// instead of hanging.
TEST(FaultPerturbTest, GraceRequesterSurvivesDelayedScannerPublish) {
  // No post-commit quiescence: only the tm_fence() calls below may take
  // part in grace periods, not the peers' own commits.
  ModeGuard g(ExecMode::StmCondVar, tle::QuiescePolicy::Never, false);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec("delay@grace_publish=1/100000000", 17));
  tle::GraceState& grace = tle::grace_state();
  tm_var<long> v{0};
  // Run a grace pass on a new thread; wait until it holds the scanner token.
  auto start_scan = [&grace] {
    const std::uint64_t started = grace.started.load();
    std::thread t([] { tle::tm_fence(); });
    EXPECT_TRUE(
        await_for(10s, [&] { return grace.started.load() != started; }));
    return t;
  };

  // The scanner finds peer 1 in flight, takes the token and scans; peer 1
  // leaves, and the scanner publishes its pass and sleeps in the window.
  OpenPeer peer1(v);
  std::thread scanner = start_scan();
  peer1.close();
  EXPECT_TRUE(await_for(10s, [] {
    return fault::snapshot().delays[hook_index(fault::Hook::GracePublish)] >
           0;
  }));

  // The requester arrives in the window with peer 2 in flight.
  OpenPeer peer2(v);
  std::atomic<bool> requester_done{false};
  std::thread requester([&] {
    tle::tm_fence();
    requester_done.store(true);
  });
  scanner.join();
  peer2.close();
  const bool done = await_for(2s, [&] { return requester_done.load(); });
  EXPECT_TRUE(done) << "grace requester stranded after the scanner's publish";
  if (!done) {
    OpenPeer peer3(v);
    std::thread rescuer = start_scan();
    peer3.close();
    rescuer.join();
  }
  requester.join();
}

// ---------------------------------------------------------------------------
// tx_condvar regressions
// ---------------------------------------------------------------------------

TEST(FaultCondvarTest, TimedWaitMeasuresMonotonicClockWhereAvailable) {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 30))
  EXPECT_EQ(tx_condvar::timed_wait_clock(), CLOCK_MONOTONIC);
#else
  EXPECT_EQ(tx_condvar::timed_wait_clock(), CLOCK_REALTIME);
#endif
}

// Regression for the unbounded signal bank: notify_all used to bank
// kPendingCap pending signals even with nobody committed-but-not-enqueued,
// so a later unrelated wait consumed one and returned without ever
// blocking. Now the bank is bounded by announced-minus-enqueued intents: a
// notify with nobody in flight banks nothing and the next timed wait really
// blocks and really times out.
TEST(FaultCondvarTest, NotifyWithNoWaitersBanksNothing) {
  const ExecMode kModes[] = {ExecMode::Lock, ExecMode::StmCondVar,
                             ExecMode::StmCondVarNoQ, ExecMode::Htm};
  for (ExecMode mode : kModes) {
    SCOPED_TRACE(tle::to_string(mode));
    ModeGuard g(mode);
    PlanGuard pg;
    elidable_mutex m;
    tx_condvar cv;
    cv.notify_all_now();
    cv.notify_one_now();
    critical(m, [&](TxContext& tx) { cv.notify_all(tx); });
    const auto before = aggregate_stats();
    const auto t0 = std::chrono::steady_clock::now();
    critical(m, [&](TxContext& tx) { cv.wait_for(tx, 30ms); });
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    const auto after = aggregate_stats();
    EXPECT_EQ(after.condvar_waits, before.condvar_waits + 1);
    EXPECT_EQ(after.condvar_timeouts, before.condvar_timeouts + 1);
    EXPECT_GE(elapsed, 25ms);
    EXPECT_EQ(cv.waiter_count(), 0);
  }
}

// The bound must not reintroduce the lost-wakeup the bank exists for: pin a
// waiter inside the committed-but-not-yet-enqueued window and let the
// notify land there. Exactly one signal banks (one intent is in flight) and
// the waiter consumes it at enqueue instead of sleeping forever.
TEST(FaultCondvarTest, SignalLandingBeforeEnqueueIsBankedNotLost) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec("delay@cv_enqueue=1/300000000", 14));
  elidable_mutex m;
  tx_condvar cv;
  tm_var<int> ready{0};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    fault::set_thread_stream(1);
    for (;;) {
      bool done = false;
      critical(m, [&](TxContext& tx) {
        if (tx.read(ready) != 0)
          done = true;
        else
          cv.wait(tx);
      });
      if (done) break;
    }
    woke.store(true);
  });
  // The delay counter bumps at the top of the window, before the sleep: once
  // it reads 1 the wait has committed (intent announced) but not enqueued.
  while (fault::snapshot().delays[hook_index(fault::Hook::CvEnqueue)] == 0)
    std::this_thread::sleep_for(1ms);
  critical(m, [&](TxContext& tx) {
    tx.write(ready, 1);
    cv.notify_all(tx);
  });
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(cv.waiter_count(), 0);
  // The banked signal was consumed at enqueue; the waiter never slept.
  EXPECT_EQ(aggregate_stats().condvar_waits, 0u);
}

// The timeout -> withdraw window: a signal that claims the waiter after its
// sem_clockwait expired but before it withdrew must be absorbed (the wake
// counts as a notify, not a timeout) and must leave the per-thread
// semaphore balanced for the next wait.
TEST(FaultCondvarTest, SignalInTimeoutWithdrawWindowIsAbsorbed) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  ASSERT_TRUE(fault::install_spec("delay@cv_timeout=1/300000000", 15));
  elidable_mutex m;
  tx_condvar cv;
  std::thread waiter([&] {
    fault::set_thread_stream(1);
    critical(m, [&](TxContext& tx) { cv.wait_for(tx, 10ms); });
  });
  while (fault::snapshot().delays[hook_index(fault::Hook::CvTimeout)] == 0)
    std::this_thread::sleep_for(1ms);
  cv.notify_one_now();  // lands inside the 300ms-wide withdraw window
  waiter.join();
  fault::clear();
  auto s = aggregate_stats();
  EXPECT_EQ(s.condvar_waits, 1u);
  EXPECT_EQ(s.condvar_timeouts, 0u);  // the signal claimed it
  EXPECT_EQ(cv.waiter_count(), 0);
  critical(m, [&](TxContext& tx) { cv.wait_for(tx, 10ms); });
  s = aggregate_stats();
  EXPECT_EQ(s.condvar_waits, 2u);
  EXPECT_EQ(s.condvar_timeouts, 1u);
}

// ---------------------------------------------------------------------------
// HTM revalidation: a moved stripe must not skip a changed prefix
// ---------------------------------------------------------------------------

// ABA-shaped guard for the documented-unsound optimization of resuming
// revalidation past already-checked entries: pause a reader between its two
// reads while a writer changes both halves of an invariant pair. The
// already-validated prefix (A) went stale, so the read of B must revalidate
// every logged entry in the moved stripes and abort — skipping the
// "already validated" prefix would let the transaction see the torn pair
// {old A, new B}.
TEST(FaultHtmTest, RevalidateNeverSkipsChangedPrefix) {
  ModeGuard g(ExecMode::Htm);
  PlanGuard pg;
  config().htm_spurious_abort_rate = 0.0;
  tm_var<long> a{0}, b{0};
  std::atomic<int> phase{0};
  std::thread writer([&] {
    while (phase.load() != 1) std::this_thread::yield();
    atomic_do([&](TxContext& tx) {
      tx.write(a, 1L);
      tx.write(b, 1L);
    });
    phase.store(2);
  });
  long a_seen = -1, b_seen = -1;
  int attempt = 0;
  atomic_do([&](TxContext& tx) {
    const long av = tx.read(a);
    if (++attempt == 1) {  // handshake only on the first attempt
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
    }
    const long bv = tx.read(b);
    a_seen = av;
    b_seen = bv;
  });
  writer.join();
  EXPECT_EQ(a_seen, b_seen);  // never the torn {0, 1} view
  EXPECT_EQ(a_seen, 1);
  EXPECT_GE(attempt, 2);
  EXPECT_GE(aggregate_stats().aborts[static_cast<int>(AbortCause::Validation)],
            1u);
}

// ---------------------------------------------------------------------------
// Observability integration: injected aborts attribute to their site
// ---------------------------------------------------------------------------

TEST(FaultObsTest, InjectedAbortsAttributedToSite) {
  ModeGuard g(ExecMode::StmCondVar);
  PlanGuard pg;
  tle::obs::profile_enable(true);
  tle::obs::reset_site_profiles();
  ASSERT_TRUE(fault::install_spec("spurious@commit=0.2", 16));
  tm_var<long> v{0};
  for (int i = 0; i < 200; ++i)
    atomic_do(TLE_TX_SITE("fault_test/injected"),
              [&](TxContext& tx) { tx.fetch_add(v, 1L); });
  const fault::Counts counts = fault::snapshot();
  fault::clear();
  tle::obs::profile_enable(false);
  ASSERT_GT(counts.injected_total(), 0u);

  int site_id = -1;
  for (int i = 0; i < tle::obs::site_count(); ++i)
    if (std::string(tle::obs::site_info(i).name) == "fault_test/injected")
      site_id = i;
  ASSERT_GE(site_id, 0);
  std::uint64_t spurious = 0;
  for (int slot = 0; slot < tle::slot_high_water(); ++slot)
    if (tle::obs::SiteCounters* t = tle::obs::peek_site_table(slot))
      spurious +=
          t[site_id].aborts[static_cast<int>(AbortCause::Spurious)].load();
  EXPECT_EQ(spurious, counts.injected_total());
}

}  // namespace
