// Unit tests for the TM runtime core: metadata encodings, single-thread
// transactional semantics, rollback, allocation logs, deferred actions,
// NoQuiesce accounting, serial fallback, multi-threaded atomicity in every
// execution mode, and ml_wt's encounter-time write locks.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/meta.hpp"
#include "tm/serial_lock.hpp"

namespace tle {
namespace {

using testing::await_flag;
using testing::kAllModes;
using testing::kElisionModes;
using testing::ModeGuard;
using testing::run_threads;

// ---------------------------------------------------------------------------
// Metadata encodings
// ---------------------------------------------------------------------------

TEST(OrecEncoding, TimestampRoundTrip) {
  for (std::uint64_t ts : {0ULL, 1ULL, 42ULL, (1ULL << 40)}) {
    for (std::uint64_t inc : {0ULL, 1ULL, 2046ULL}) {
      const std::uint64_t v = orec_make(ts, inc);
      EXPECT_FALSE(orec_locked(v));
      EXPECT_EQ(orec_timestamp(v), ts);
      EXPECT_EQ(orec_incarnation(v), inc);
    }
  }
}

TEST(OrecEncoding, LockWordRoundTrip) {
  alignas(8) char dummy[sizeof(TxDesc)];
  auto* tx = reinterpret_cast<TxDesc*>(dummy);
  const std::uint64_t w = orec_lockword(tx);
  EXPECT_TRUE(orec_locked(w));
  EXPECT_EQ(orec_owner(w), tx);
}

TEST(OrecEncoding, AbortReleaseBumpsIncarnation) {
  const std::uint64_t v = orec_make(7, 5);
  const std::uint64_t a = orec_abort_release(v);
  EXPECT_EQ(orec_timestamp(a), 7u);
  EXPECT_EQ(orec_incarnation(a), 6u);
}

TEST(OrecEncoding, CommitReleaseKeepsIncarnation) {
  const std::uint64_t v = orec_make(7, 5);
  const std::uint64_t c = orec_commit_release(v, 99);
  EXPECT_EQ(orec_timestamp(c), 99u);
  EXPECT_EQ(orec_incarnation(c), 5u);
}

TEST(OrecTable, DistinctWordsUsuallyMapToDistinctOrecs) {
  std::uint64_t words[16];
  std::set<const void*> orecs;
  for (auto& w : words) orecs.insert(&orec_for(&w));
  // 16 consecutive words over 64K orecs: collisions should be rare.
  EXPECT_GE(orecs.size(), 14u);
}

TEST(TmVar, EncodesSmallTypes) {
  tm_var<int> i(-7);
  EXPECT_EQ(i.unsafe_get(), -7);
  tm_var<double> d(3.25);
  EXPECT_EQ(d.unsafe_get(), 3.25);
  int x = 0;
  tm_var<int*> p(&x);
  EXPECT_EQ(p.unsafe_get(), &x);
  tm_var<bool> b(true);
  EXPECT_TRUE(b.unsafe_get());
}

// ---------------------------------------------------------------------------
// Line tracker (HTM capacity model)
// ---------------------------------------------------------------------------

TEST(LineTracker, SameLineNeverOverflows) {
  LineTracker t;
  t.configure(4, 2);
  t.new_txn();
  alignas(64) char buf[64];
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(t.touch(buf + (i % 8)));
  EXPECT_EQ(t.distinct_lines(), 1u);
}

TEST(LineTracker, OverflowsWhenSetIsFull) {
  LineTracker t;
  t.configure(1, 2);  // one set, two ways: third distinct line must fail
  t.new_txn();
  std::vector<char> arena(64 * 16);
  int ok = 0;
  for (int i = 0; i < 16; ++i)
    if (t.touch(arena.data() + 64 * i)) ++ok;
  EXPECT_EQ(ok, 2);
}

TEST(LineTracker, NewTxnResetsTracking) {
  LineTracker t;
  t.configure(1, 1);
  t.new_txn();
  std::vector<char> arena(128);
  EXPECT_TRUE(t.touch(arena.data()));
  EXPECT_FALSE(t.touch(arena.data() + 64));
  t.new_txn();
  EXPECT_TRUE(t.touch(arena.data() + 64));
}

// ---------------------------------------------------------------------------
// Single-thread transactional semantics (parameterized over modes)
// ---------------------------------------------------------------------------

class AllModes : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(Tm, AllModes, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& c : s)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return s;
                         });

TEST_P(AllModes, ReadWriteRoundTrip) {
  ModeGuard g(GetParam());
  tm_var<int> v(1);
  atomic_do([&](TxContext& tx) {
    EXPECT_EQ(tx.read(v), 1);
    tx.write(v, 2);
    EXPECT_EQ(tx.read(v), 2);  // read-own-write
  });
  EXPECT_EQ(v.unsafe_get(), 2);
}

TEST_P(AllModes, MultipleWritesLastWins) {
  ModeGuard g(GetParam());
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) {
    for (int i = 1; i <= 5; ++i) tx.write(v, i);
  });
  EXPECT_EQ(v.unsafe_get(), 5);
}

TEST_P(AllModes, FlatNestingSubsumes) {
  ModeGuard g(GetParam());
  tm_var<int> v(0);
  atomic_do([&](TxContext&) {
    atomic_do([&](TxContext& inner) { inner.write(v, 41); });
    atomic_do([&](TxContext& inner) { inner.write(v, inner.read(v) + 1); });
  });
  EXPECT_EQ(v.unsafe_get(), 42);
}

TEST_P(AllModes, ExceptionCancelsAndThrows) {
  ModeGuard g(GetParam());
  tm_var<int> v(10);
  EXPECT_THROW(atomic_do([&](TxContext& tx) {
                 tx.write(v, 99);
                 throw std::runtime_error("cancel");
               }),
               std::runtime_error);
  if (GetParam() == ExecMode::Lock) {
    // Lock mode is not speculative: like a real critical section, effects
    // before the throw are NOT undone.
    EXPECT_EQ(v.unsafe_get(), 99);
  } else {
    EXPECT_EQ(v.unsafe_get(), 10) << "speculative write must be rolled back";
  }
}

TEST_P(AllModes, DeferredActionRunsAfterCommit) {
  ModeGuard g(GetParam());
  tm_var<int> v(0);
  int log = 0;
  atomic_do([&](TxContext& tx) {
    tx.write(v, 1);
    tx.defer([&] {
      // By deferral time the transaction is committed and visible.
      EXPECT_EQ(v.unsafe_get(), 1);
      ++log;
    });
    EXPECT_EQ(log, 0) << "deferred action must not run inside the txn";
  });
  EXPECT_EQ(log, 1);
}

TEST_P(AllModes, DeferredActionsRunInFifoOrder) {
  ModeGuard g(GetParam());
  std::vector<int> order;
  atomic_do([&](TxContext& tx) {
    tx.defer([&] { order.push_back(1); });
    tx.defer([&] { order.push_back(2); });
    tx.defer([&] { order.push_back(3); });
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(AllModes, DeferredActionDroppedOnExceptionCancel) {
  ModeGuard g(GetParam());
  if (GetParam() == ExecMode::Lock) GTEST_SKIP() << "no cancel in Lock mode";
  int ran = 0;
  EXPECT_THROW(atomic_do([&](TxContext& tx) {
                 tx.defer([&] { ++ran; });
                 throw std::logic_error("x");
               }),
               std::logic_error);
  EXPECT_EQ(ran, 0);
}

TEST_P(AllModes, SynchronizedBlockIsIrrevocable) {
  ModeGuard g(GetParam());
  bool was_irrevocable = false;
  synchronized_do([&](TxContext& tx) { was_irrevocable = tx.is_irrevocable(); });
  EXPECT_TRUE(was_irrevocable);
}

TEST_P(AllModes, SynchronizedNestedInAtomicForcesSerial) {
  ModeGuard g(GetParam());
  reset_stats();
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) {
    tx.write(v, 5);
    synchronized_do([&](TxContext& inner) {
      EXPECT_TRUE(inner.is_irrevocable());
      inner.write(v, inner.read(v) + 1);
    });
  });
  EXPECT_EQ(v.unsafe_get(), 6);
  if (GetParam() != ExecMode::Lock) {
    const auto s = aggregate_stats();
    EXPECT_GE(s.serial_commits, 1u) << "must have fallen back to serial";
    EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Unsafe)], 1u);
  }
}

TEST_P(AllModes, AllocSurvivesCommit) {
  ModeGuard g(GetParam());
  struct Node {
    int payload;
  };
  Node* made = nullptr;
  tm_var<Node*> slot(nullptr);
  atomic_do([&](TxContext& tx) {
    made = tx.create<Node>(Node{7});
    tx.write(slot, made);
  });
  ASSERT_NE(slot.unsafe_get(), nullptr);
  EXPECT_EQ(slot.unsafe_get()->payload, 7);
  atomic_do([&](TxContext& tx) {
    tx.destroy(tx.read(slot));
    tx.write(slot, static_cast<Node*>(nullptr));
  });
  EXPECT_EQ(slot.unsafe_get(), nullptr);
}

TEST_P(AllModes, AllocRolledBackOnCancel) {
  ModeGuard g(GetParam());
  if (GetParam() == ExecMode::Lock) GTEST_SKIP() << "no cancel in Lock mode";
  struct Node {
    int payload;
  };
  // ASan/valgrind would catch the leak if rollback failed to free.
  EXPECT_THROW(atomic_do([&](TxContext& tx) {
                 (void)tx.create<Node>(Node{1});
                 throw std::bad_alloc();
               }),
               std::bad_alloc);
}

TEST_P(AllModes, RestartRetriesFromTop) {
  ModeGuard g(GetParam());
  if (GetParam() == ExecMode::Lock) GTEST_SKIP() << "no speculation to restart";
  int attempts = 0;
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) {
    ++attempts;
    tx.write(v, attempts);
    if (attempts < 3) tx.restart();
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(v.unsafe_get(), 3);
}

// ---------------------------------------------------------------------------
// NoQuiesce accounting (Section IV-B semantics)
// ---------------------------------------------------------------------------

TEST(NoQuiesce, HonoredOnlyWhenPolicyAllows) {
  tm_var<int> v(0);
  {
    ModeGuard g(ExecMode::StmCondVar);  // policy does NOT honor requests
    reset_stats();
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(v, 1);
    });
    const auto s = aggregate_stats();
    EXPECT_EQ(s.noquiesce_requests, 1u);
    EXPECT_EQ(s.noquiesce_honored, 0u);
    EXPECT_GE(s.quiesce_calls, 1u);
  }
  {
    ModeGuard g(ExecMode::StmCondVarNoQ);  // honoring mode
    reset_stats();
    atomic_do([&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(v, 2);
    });
    const auto s = aggregate_stats();
    EXPECT_EQ(s.noquiesce_honored, 1u);
    EXPECT_EQ(s.quiesce_calls, 0u);
  }
}

TEST(NoQuiesce, IgnoredWhenNested) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  reset_stats();
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) {
    tx.write(v, 1);
    atomic_do([&](TxContext& inner) { inner.no_quiesce(); });
  });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.noquiesce_ignored_nested, 1u);
  EXPECT_EQ(s.noquiesce_honored, 0u);
  EXPECT_GE(s.quiesce_calls, 1u) << "outer txn must still quiesce";
}

TEST(NoQuiesce, DeniedWhenTransactionFreesMemory) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  reset_stats();
  tm_var<int*> slot(nullptr);
  atomic_do([&](TxContext& tx) {
    tx.write(slot, tx.create<int>(5));
  });
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.destroy(tx.read(slot));
    tx.write(slot, static_cast<int*>(nullptr));
  });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.noquiesce_ignored_free, 1u)
      << "freeing transactions must quiesce (allocator rule)";
  EXPECT_GE(s.quiesce_calls, 1u);
  EXPECT_EQ(s.tm_frees, 1u);
}

TEST(NoQuiesce, ReadOnlySkipsQuiesceUnderWriterOnlyPolicy) {
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::WriterOnly, false);
  reset_stats();
  tm_var<int> v(3);
  int out = 0;
  atomic_do([&](TxContext& tx) { out = tx.read(v); });
  EXPECT_EQ(out, 3);
  EXPECT_EQ(aggregate_stats().quiesce_calls, 0u);
}

TEST(NoQuiesce, NeverPolicySkipsAllQuiesce) {
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::Never, false);
  reset_stats();
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) { tx.write(v, 1); });
  EXPECT_EQ(aggregate_stats().quiesce_calls, 0u);
}

TEST(NoQuiesce, HtmNeverQuiesces) {
  ModeGuard g(ExecMode::Htm);
  reset_stats();
  tm_var<int> v(0);
  atomic_do([&](TxContext& tx) { tx.write(v, 1); });
  EXPECT_EQ(aggregate_stats().quiesce_calls, 0u)
      << "strongly isolated HTM requires no quiescence (paper §IV)";
}

// ---------------------------------------------------------------------------
// HTM capacity + fallback
// ---------------------------------------------------------------------------

TEST(HtmCapacity, LargeWriteSetFallsBackToSerial) {
  ModeGuard g(ExecMode::Htm);
  config().htm_write_sets = 2;
  config().htm_write_ways = 2;  // at most 4 written lines speculative
  reset_stats();
  constexpr int kN = 64;
  static tm_var<int> vars[kN];  // static: spread over many cache lines
  atomic_do([&](TxContext& tx) {
    for (int i = 0; i < kN; ++i) tx.write(vars[i], i);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(vars[i].unsafe_get(), i);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Capacity)], 1u);
  EXPECT_GE(s.serial_commits, 1u);
}

TEST(HtmCapacity, SmallTransactionsStaySpeculative) {
  ModeGuard g(ExecMode::Htm);
  reset_stats();
  tm_var<int> v(0);
  for (int i = 0; i < 100; ++i)
    atomic_do([&](TxContext& tx) { tx.write(v, tx.read(v) + 1); });
  EXPECT_EQ(v.unsafe_get(), 100);
  const auto s = aggregate_stats();
  EXPECT_EQ(s.serial_commits, 0u);
  EXPECT_EQ(s.commits, 100u);
}

// ---------------------------------------------------------------------------
// Multi-threaded atomicity (the classic invariants), all modes
// ---------------------------------------------------------------------------

TEST_P(AllModes, ConcurrentCounterIsExact) {
  ModeGuard g(GetParam());
  reset_stats();
  tm_var<long> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIncrements; ++i)
      atomic_do([&](TxContext& tx) { tx.write(counter, tx.read(counter) + 1); });
  });
  EXPECT_EQ(counter.unsafe_get(), long{kThreads} * kIncrements);
  if (!config().is_stm()) return;
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits + s.serial_commits, 1u * kThreads * kIncrements);
  // Honest causes only: ml_wt aborts this workload with Conflict,
  // Validation or SerialPending, never with an HTM-only cause. An armed
  // fault plan injects those causes on purpose.
  if (fault::active()) return;
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Spurious)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::StripeBusy)], 0u);
}

TEST_P(AllModes, BankTransferPreservesTotal) {
  ModeGuard g(GetParam());
  constexpr int kAccounts = 16;
  constexpr long kInitial = 1000;
  static tm_var<long> accounts[kAccounts];
  for (auto& a : accounts) a.unsafe_set(kInitial);
  run_threads(4, [&](int t) {
    Xoshiro256 rng(1000 + static_cast<unsigned>(t));
    for (int i = 0; i < 2000; ++i) {
      const int from = static_cast<int>(rng.below(kAccounts));
      const int to = static_cast<int>(rng.below(kAccounts));
      const long amt = static_cast<long>(rng.below(20));
      atomic_do([&](TxContext& tx) {
        tx.write(accounts[from], tx.read(accounts[from]) - amt);
        tx.write(accounts[to], tx.read(accounts[to]) + amt);
      });
    }
  });
  long total = 0;
  for (auto& a : accounts) total += a.unsafe_get();
  EXPECT_EQ(total, kInitial * kAccounts);
}

TEST_P(AllModes, ReadersNeverSeeTornInvariant) {
  // Writer keeps x == y; readers must never observe x != y.
  ModeGuard g(GetParam());
  tm_var<long> x(0), y(0);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread writer([&] {
    for (int i = 1; i <= 4000; ++i) {
      atomic_do([&](TxContext& tx) {
        tx.write(x, static_cast<long>(i));
        tx.write(y, static_cast<long>(i));
      });
    }
    stop.store(true);
  });
  run_threads(2, [&](int) {
    while (!stop.load()) {
      long a = 0, b = 0;
      atomic_do([&](TxContext& tx) {
        a = tx.read(x);
        b = tx.read(y);
      });
      if (a != b) violations.fetch_add(1);
    }
  });
  writer.join();
  EXPECT_EQ(violations.load(), 0);

  // A long reader: one transaction sums a 512-cell block while two writers
  // increment random cells in it. Under STM each writer commit moves the
  // clock past the reader's snapshot, so the scan carries its large read
  // set through timestamp extension. Cells only grow: a committed sum that
  // went backwards read a torn snapshot.
  constexpr std::size_t kBlock = 512;
  constexpr int kAdds = 2000;
  std::vector<tm_var<long>> block(kBlock);
  std::atomic<int> writers_left{2};
  std::atomic<long> went_back{0};
  run_threads(3, [&](int t) {
    if (t == 0) {
      long floor = 0;
      while (writers_left.load() > 0) {
        long sum = 0;
        atomic_do([&](TxContext& tx) {
          sum = 0;
          for (auto& c : block) sum += tx.read(c);
        });
        if (sum < floor) went_back.fetch_add(1);
        floor = sum;
      }
      return;
    }
    Xoshiro256 rng(2000 + static_cast<unsigned>(t));
    for (int i = 0; i < kAdds; ++i) {
      tm_var<long>& c = block[rng.below(kBlock)];
      atomic_do([&](TxContext& tx) { tx.write(c, tx.read(c) + 1); });
    }
    writers_left.fetch_sub(1);
  });
  EXPECT_EQ(went_back.load(), 0);
  long total = 0;
  for (auto& c : block) total += c.unsafe_get();
  EXPECT_EQ(total, 2L * kAdds);
}

// ---------------------------------------------------------------------------
// ml_wt encounter-time write locks
// ---------------------------------------------------------------------------

// A writer holds an uncommitted write to `b` while a reader reads it. ml_wt
// locked b's orec at encounter time, so the read is a Conflict abort, and
// the reader can only commit after the writer, seeing the written value.
TEST(MlWtEncounterLock, ReaderOfInFlightWriteConflictAborts) {
  ModeGuard g(ExecMode::StmCondVar);
  config().quiesce = QuiescePolicy::Never;  // writer parks mid-transaction
  reset_stats();
  tm_var<long> a{1}, b{10};
  std::atomic<bool> writer_in_flight{false}, release_writer{false};
  std::atomic<bool> reader_done{false};

  std::thread writer([&] {
    atomic_do([&](TxContext& tx) {
      tx.write(b, 20L);
      writer_in_flight.store(true);
      await_flag(release_writer);
    });
  });
  long got_a = 0, got_b = 0;
  std::thread reader([&] {
    await_flag(writer_in_flight);
    atomic_do([&](TxContext& tx) {
      got_a = tx.read(a);
      got_b = tx.read(b);
    });
    reader_done.store(true);
  });

  // Release the writer once the reader has conflict-aborted on the
  // encounter lock (or, if the lock failed, finished without aborting).
  await_flag(writer_in_flight);
  while (!reader_done.load(std::memory_order_acquire) &&
         aggregate_stats().aborts[static_cast<int>(AbortCause::Conflict)] < 1)
    std::this_thread::yield();
  release_writer.store(true);
  writer.join();
  reader.join();

  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 20);
  EXPECT_GE(aggregate_stats().aborts[static_cast<int>(AbortCause::Conflict)],
            1u);
  EXPECT_EQ(b.unsafe_get(), 20);
}

// ---------------------------------------------------------------------------
// Serial lock
// ---------------------------------------------------------------------------

TEST(SerialLock, WriterExcludesWriters) {
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  run_threads(4, [&](int) {
    ThreadSlot& me = my_slot();
    for (int i = 0; i < 500; ++i) {
      serial_lock().write_lock(me);
      if (inside.fetch_add(1) != 0) overlap.store(true);
      inside.fetch_sub(1);
      serial_lock().write_unlock(me);
    }
  });
  EXPECT_FALSE(overlap.load());
}

TEST(SerialLock, WriterExcludesReaders) {
  std::atomic<bool> writer_in{false};
  std::atomic<bool> raced{false};
  std::atomic<bool> stop{false};
  std::thread readers([&] {
    ThreadSlot& me = my_slot();
    while (!stop.load()) {
      serial_lock().read_lock(me);
      if (writer_in.load()) raced.store(true);
      serial_lock().read_unlock(me);
    }
  });
  {
    ThreadSlot& me = my_slot();
    for (int i = 0; i < 300; ++i) {
      serial_lock().write_lock(me);
      writer_in.store(true);
      for (int k = 0; k < 50; ++k) std::atomic_signal_fence(std::memory_order_seq_cst);
      writer_in.store(false);
      serial_lock().write_unlock(me);
    }
  }
  stop.store(true);
  readers.join();
  EXPECT_FALSE(raced.load());
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

TEST(Stats, SnapshotCountsCommitsAndReadOnly) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();
  tm_var<int> v(1);
  atomic_do([&](TxContext& tx) { (void)tx.read(v); });
  atomic_do([&](TxContext& tx) { tx.write(v, 2); });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.commits_readonly, 1u);
  EXPECT_EQ(s.txn_starts, 2u);
}

TEST(Stats, ReportIsNonEmptyAndMentionsAborts) {
  const auto s = aggregate_stats();
  const std::string r = s.report();
  EXPECT_NE(r.find("aborts"), std::string::npos);
  EXPECT_NE(r.find("quiesce"), std::string::npos);
}

TEST(Stats, LockModeCountsSections) {
  ModeGuard g(ExecMode::Lock);
  reset_stats();
  elidable_mutex m;
  for (int i = 0; i < 5; ++i) critical(m, [](TxContext&) {});
  EXPECT_EQ(aggregate_stats().lock_sections, 5u);
}

// ---------------------------------------------------------------------------
// critical() — the TLE entry point
// ---------------------------------------------------------------------------

TEST_P(AllModes, CriticalSectionCounterIsExact) {
  ModeGuard g(GetParam());
  elidable_mutex m;
  tm_var<long> counter(0);
  run_threads(4, [&](int) {
    for (int i = 0; i < 1500; ++i)
      critical(m, [&](TxContext& tx) { tx.write(counter, tx.read(counter) + 1); });
  });
  EXPECT_EQ(counter.unsafe_get(), 6000);
}

TEST_P(AllModes, TwoMutexesTwoStructuresStayConsistent) {
  // The Section IV-A queue+stack example: two disjoint structures guarded by
  // two locks; under elision both become transactions on one heap.
  ModeGuard g(GetParam());
  elidable_mutex mq, ms;
  tm_var<long> queue_size(0), stack_size(0);
  run_threads(4, [&](int t) {
    for (int i = 0; i < 1000; ++i) {
      if ((t + i) % 2 == 0)
        critical(mq, [&](TxContext& tx) {
          tx.write(queue_size, tx.read(queue_size) + 1);
        });
      else
        critical(ms, [&](TxContext& tx) {
          tx.write(stack_size, tx.read(stack_size) + 1);
        });
    }
  });
  EXPECT_EQ(queue_size.unsafe_get() + stack_size.unsafe_get(), 4000);
}

TEST(Critical, NestedLockSectionsRunInline) {
  ModeGuard g(ExecMode::Lock);
  elidable_mutex outer, inner;
  int result = 0;
  critical(outer, [&](TxContext&) {
    critical(inner, [&](TxContext&) { result = 42; });
  });
  EXPECT_EQ(result, 42);
}

TEST(Fence, TmFenceReturnsWhenIdle) {
  tm_fence();  // no transactions in flight: must not block
  SUCCEED();
}

}  // namespace
}  // namespace tle
