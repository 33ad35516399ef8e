// Tests for the runtime extensions beyond the paper's baseline:
//   * per-transaction retry attributes (the paper's §VII-A suggestion),
//   * the §IV-C privatization-race auditor.
#include <gtest/gtest.h>

#include <atomic>

#include "test_support.hpp"
#include "tm/audit.hpp"
#include "tm/tm_obj.hpp"
#include "tm/trace.hpp"

namespace tle {
namespace {

using testing::ModeGuard;
using testing::run_threads;

// ---------------------------------------------------------------------------
// Per-transaction retry attributes
// ---------------------------------------------------------------------------

TEST(TxnAttrs, PreferSerialSkipsSpeculation) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();
  elidable_mutex m;
  tm_var<int> v(0);
  TxnAttrs attrs;
  attrs.prefer_serial = true;
  critical(m, attrs, [&](TxContext& tx) {
    EXPECT_TRUE(tx.is_irrevocable());
    tx.write(v, 1);
  });
  EXPECT_EQ(v.unsafe_get(), 1);
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.serial_commits, 1u);
}

TEST(TxnAttrs, MaxRetriesOneFallsBackAfterFirstAbort) {
  ModeGuard g(ExecMode::StmCondVar);
  config().stm_max_retries = 1000;  // global would retry ~forever
  reset_stats();
  tm_var<int> v(0);
  int executions = 0;
  TxnAttrs attrs;
  attrs.max_retries = 1;
  atomic_do(attrs, [&](TxContext& tx) {
    ++executions;
    tx.write(v, executions);
    if (executions == 1) tx.restart();  // force one abort
  });
  // attempt 1 aborted; per-section limit 1 -> attempt 2 runs serial.
  EXPECT_EQ(executions, 2);
  const auto s = aggregate_stats();
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_EQ(s.serial_fallbacks, 1u);
}

TEST(TxnAttrs, AttributesDoNotLeakToLaterTransactions) {
  ModeGuard g(ExecMode::StmCondVar);
  tm_var<int> v(0);
  TxnAttrs attrs;
  attrs.prefer_serial = true;
  atomic_do(attrs, [&](TxContext& tx) { tx.write(v, 1); });
  reset_stats();
  atomic_do([&](TxContext& tx) { tx.write(v, 2); });  // plain: speculative
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.serial_commits, 0u);
}

TEST(TxnAttrs, LockModeIgnoresAttrs) {
  ModeGuard g(ExecMode::Lock);
  elidable_mutex m;
  tm_var<int> v(0);
  TxnAttrs attrs;
  attrs.max_retries = 7;
  critical(m, attrs, [&](TxContext& tx) { tx.write(v, 3); });
  EXPECT_EQ(v.unsafe_get(), 3);
}

// ---------------------------------------------------------------------------
// Auditor (§IV-C)
// ---------------------------------------------------------------------------

struct AuditGuard {
  AuditGuard() {
    audit::reset();
    audit::enable(true);
  }
  ~AuditGuard() { audit::enable(false); }
};

TEST(Audit, FlagsUnsafeAccessOverlappingUnquiescedCommit) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  AuditGuard a;
  tm_var<long> data(0);
  tm_var<long> unrelated(0);

  std::atomic<bool> peer_in_txn{false};
  std::atomic<bool> release_peer{false};
  std::thread peer([&] {
    atomic_do([&](TxContext& tx) {
      (void)tx.read(unrelated);
      peer_in_txn.store(true);
      while (!release_peer.load(std::memory_order_relaxed)) {
        std::this_thread::yield();  // hold the transaction open
      }
    });
  });
  while (!peer_in_txn.load()) std::this_thread::yield();

  // Misuse: privatize `data` but skip quiescence, then touch it unsafely
  // while the peer's transaction is still live.
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.write(data, 42L);
  });
  (void)data.unsafe_get();

  const auto rep = audit::report();
  EXPECT_GE(rep.unquiesced_commits, 1u);
  EXPECT_GE(rep.flagged_accesses, 1u);
  ASSERT_FALSE(rep.samples.empty());

  release_peer.store(true);
  peer.join();
}

TEST(Audit, QuiescedCommitIsNotFlagged) {
  ModeGuard g(ExecMode::StmCondVar);  // NoQuiesce NOT honored: always quiesce
  AuditGuard a;
  tm_var<long> data(0);
  atomic_do([&](TxContext& tx) { tx.write(data, 1L); });
  (void)data.unsafe_get();
  const auto rep = audit::report();
  EXPECT_EQ(rep.flagged_accesses, 0u);
  EXPECT_EQ(rep.unquiesced_commits, 0u);
}

TEST(Audit, HazardExpiresWhenPeersFinish) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  AuditGuard a;
  tm_var<long> data(0);
  std::atomic<bool> peer_in_txn{false};
  std::atomic<bool> release_peer{false};
  std::thread peer([&] {
    atomic_do([&](TxContext& tx) {
      (void)tx.read(data);
      peer_in_txn.store(true);
      while (!release_peer.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
  });
  while (!peer_in_txn.load()) std::this_thread::yield();
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.write(data, 7L);
  });
  release_peer.store(true);
  peer.join();
  // The overlapping transaction is gone: accesses are safe and unflagged.
  (void)data.unsafe_get();
  EXPECT_EQ(audit::report().flagged_accesses, 0u);
}

TEST(Audit, DisabledAuditorCostsNothingAndReportsNothing) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  audit::reset();
  audit::enable(false);
  tm_var<long> data(0);
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.write(data, 1L);
  });
  (void)data.unsafe_get();
  EXPECT_EQ(audit::report().flagged_accesses, 0u);
  EXPECT_EQ(audit::report().unquiesced_commits, 0u);
}

TEST(Audit, UnrelatedAddressIsNotFlagged) {
  // Address filter: the hazard only covers what the unquiesced commit wrote.
  ModeGuard g(ExecMode::StmCondVarNoQ);
  AuditGuard a;
  tm_var<long> written(0), untouched(7);
  std::atomic<bool> peer_in{false}, release{false};
  std::thread peer([&] {
    atomic_do([&](TxContext& tx) {
      (void)tx.read(written);
      peer_in.store(true);
      while (!release.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
  });
  while (!peer_in.load()) std::this_thread::yield();
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.write(written, 1L);
  });
  (void)untouched.unsafe_get();  // different cell: must NOT be flagged
  EXPECT_EQ(audit::report().flagged_accesses, 0u);
  (void)written.unsafe_get();  // the privatized cell: flagged
  EXPECT_GE(audit::report().flagged_accesses, 1u);
  release.store(true);
  peer.join();
}

// ---------------------------------------------------------------------------
// Simulated-HTM environmental abort model
// ---------------------------------------------------------------------------

TEST(HtmSpurious, RateOneForcesSerialFallback) {
  ModeGuard g(ExecMode::Htm);
  config().htm_spurious_abort_rate = 1.0;
  reset_stats();
  tm_var<int> v(0);
  for (int i = 0; i < 20; ++i)
    atomic_do([&](TxContext& tx) { tx.write(v, i); });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits, 0u) << "every speculative attempt must die";
  EXPECT_EQ(s.serial_commits, 20u);
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Spurious)], 40u)
      << "2 attempts per transaction";
  EXPECT_EQ(v.unsafe_get(), 19);
}

TEST(HtmSpurious, CalibratedRateLandsInPaperBand) {
  // p = 0.4 with 2 retries: expected fallback = p^2 = 16%, the middle of
  // the paper's observed 13-18% TSX band.
  ModeGuard g(ExecMode::Htm);
  config().htm_spurious_abort_rate = 0.4;
  reset_stats();
  tm_var<long> v(0);
  constexpr int kTxns = 4000;
  for (int i = 0; i < kTxns; ++i)
    atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
  EXPECT_EQ(v.unsafe_get(), kTxns);
  const auto s = aggregate_stats();
  const double fallback = s.serial_fraction();
  EXPECT_GT(fallback, 0.12);
  EXPECT_LT(fallback, 0.20);
}

TEST(HtmSpurious, ZeroRateIsDeterministicallyQuiet) {
  ModeGuard g(ExecMode::Htm);  // default rate is 0
  reset_stats();
  tm_var<int> v(0);
  for (int i = 0; i < 50; ++i) atomic_do([&](TxContext& tx) { tx.write(v, i); });
  EXPECT_EQ(aggregate_stats().aborts[static_cast<int>(AbortCause::Spurious)],
            0u);
}

// ---------------------------------------------------------------------------
// tm_obj
// ---------------------------------------------------------------------------

struct Triple {
  long a, b, c;
};

TEST(TmObj, RoundTripAndSize) {
  static_assert(tm_obj<Triple>::kWords == 3);
  ModeGuard g(ExecMode::StmCondVar);
  tm_obj<Triple> obj(Triple{1, 2, 3});
  Triple got{};
  atomic_do([&](TxContext& tx) { got = obj.get(tx); });
  EXPECT_EQ(got.a, 1);
  EXPECT_EQ(got.c, 3);
  atomic_do([&](TxContext& tx) { obj.set(tx, Triple{4, 5, 6}); });
  EXPECT_EQ(obj.unsafe_get().b, 5);
}

TEST(TmObj, SnapshotsAreNeverTorn) {
  // Writer keeps a == b == c; multi-word reads must never mix versions.
  for (ExecMode m : {ExecMode::StmCondVar, ExecMode::Htm}) {
    ModeGuard g(m);
    tm_obj<Triple> obj(Triple{0, 0, 0});
    std::atomic<bool> stop{false};
    std::atomic<long> torn{0};
    std::thread writer([&] {
      for (long i = 1; i <= 3000; ++i)
        atomic_do([&](TxContext& tx) { obj.set(tx, Triple{i, i, i}); });
      stop.store(true);
    });
    run_threads(2, [&](int) {
      while (!stop.load()) {
        Triple t{};
        atomic_do([&](TxContext& tx) { t = obj.get(tx); });
        if (t.a != t.b || t.b != t.c) torn.fetch_add(1);
      }
    });
    writer.join();
    EXPECT_EQ(torn.load(), 0) << to_string(m);
  }
}

TEST(TmObj, RollbackRestoresAllWords) {
  ModeGuard g(ExecMode::StmCondVar);
  tm_obj<Triple> obj(Triple{9, 9, 9});
  EXPECT_THROW(atomic_do([&](TxContext& tx) {
                 obj.set(tx, Triple{1, 2, 3});
                 throw std::runtime_error("x");
               }),
               std::runtime_error);
  const Triple t = obj.unsafe_get();
  EXPECT_EQ(t.a, 9);
  EXPECT_EQ(t.b, 9);
  EXPECT_EQ(t.c, 9);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

struct TraceGuard {
  TraceGuard() {
    trace::reset();
    trace::enable(true);
  }
  ~TraceGuard() { trace::enable(false); }
};

TEST(Trace, RecordsBeginCommitPairs) {
  ModeGuard g(ExecMode::StmCondVar);
  TraceGuard t;
  tm_var<int> v(0);
  for (int i = 0; i < 10; ++i)
    atomic_do([&](TxContext& tx) { tx.write(v, i); });
  const auto events = trace::snapshot();
  int begins = 0, commits = 0, quiesces = 0;
  for (const auto& e : events) {
    begins += e.event == trace::Event::Begin;
    commits += e.event == trace::Event::Commit;
    quiesces += e.event == trace::Event::Quiesce;
  }
  EXPECT_GE(begins, 10);
  EXPECT_GE(commits, 10);
  EXPECT_GE(quiesces, 10) << "Always policy quiesces each commit";
  // Timestamps are sorted.
  for (std::size_t i = 1; i < events.size(); ++i)
    ASSERT_LE(events[i - 1].ts_ns, events[i].ts_ns);
}

TEST(Trace, RecordsAbortCause) {
  ModeGuard g(ExecMode::StmCondVar);
  TraceGuard t;
  tm_var<int> v(0);
  int runs = 0;
  atomic_do([&](TxContext& tx) {
    tx.write(v, ++runs);
    if (runs == 1) tx.restart();
  });
  bool saw_user_abort = false;
  for (const auto& e : trace::snapshot())
    if (e.event == trace::Event::Abort &&
        e.cause == AbortCause::UserExplicit)
      saw_user_abort = true;
  EXPECT_TRUE(saw_user_abort);
}

TEST(Trace, SerialEventsBracketIrrevocableRuns) {
  ModeGuard g(ExecMode::Htm);
  TraceGuard t;
  tm_var<int> v(0);
  synchronized_do([&](TxContext& tx) { tx.write(v, 1); });
  int enters = 0, exits = 0;
  for (const auto& e : trace::snapshot()) {
    enters += e.event == trace::Event::SerialEnter;
    exits += e.event == trace::Event::SerialExit;
  }
  EXPECT_EQ(enters, 1);
  EXPECT_EQ(exits, 1);
}

TEST(Trace, DisabledMeansEmpty) {
  trace::reset();
  trace::enable(false);
  ModeGuard g(ExecMode::StmCondVar);
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) { tx.write(v, 1); });
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, RingWrapsKeepingNewest) {
  ModeGuard g(ExecMode::StmCondVar);
  config().quiesce = QuiescePolicy::Never;  // 2 events per txn
  TraceGuard t;
  tm_var<int> v(0);
  const int txns = static_cast<int>(trace::kRingSize);  // 2x ring capacity
  for (int i = 0; i < txns; ++i)
    atomic_do([&](TxContext& tx) { tx.write(v, i); });
  const auto events = trace::snapshot();
  EXPECT_EQ(events.size(), trace::kRingSize) << "ring keeps the newest window";
}

TEST(Trace, EventNames) {
  EXPECT_STREQ(trace::to_string(trace::Event::Begin), "begin");
  EXPECT_STREQ(trace::to_string(trace::Event::Quiesce), "quiesce");
}

}  // namespace
}  // namespace tle
