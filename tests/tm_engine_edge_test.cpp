// Edge-path tests for the TM engines: timestamp extension (success and
// failure), serial-pending aborts, orec aliasing, HTM revalidation aborts,
// nested restart semantics, and Listing-1 proxy privatization.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "util/rng.hpp"
#include "tm/meta.hpp"
#include "tm/serial_lock.hpp"

namespace tle {
namespace {

using testing::await_flag;
using testing::ModeGuard;

// ---------------------------------------------------------------------------
// ml_wt timestamp extension
// ---------------------------------------------------------------------------

TEST(MlWtExtension, ExtensionSucceedsWhenReadSetStillValid) {
  // Quiescence off: the helper's commit would otherwise block on the
  // deliberately-held-open transaction under test.
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::Never, false);
  reset_stats();
  tm_var<long> a(1), b(10);
  std::atomic<bool> t1_read_a{false}, t2_wrote_b{false};

  std::thread t1([&] {
    long got_a = 0, got_b = 0;
    atomic_do([&](TxContext& tx) {
      got_a = tx.read(a);
      t1_read_a.store(true);
      await_flag(t2_wrote_b);
      // b's orec now carries a timestamp newer than our snapshot: this read
      // triggers a timestamp extension, which validates `a` (unchanged) and
      // succeeds.
      got_b = tx.read(b);
    });
    EXPECT_EQ(got_a, 1);
    EXPECT_EQ(got_b, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) { tx.write(b, 20L); });
  t2_wrote_b.store(true);
  t1.join();
  const auto s = aggregate_stats();
  EXPECT_EQ(s.aborts_total(), 0u) << "extension must avoid the abort";
}

TEST(MlWtExtension, ExtensionFailsWhenReadSetInvalidated) {
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::Never, false);
  reset_stats();
  tm_var<long> a(1), b(10);
  std::atomic<bool> t1_read_a{false}, t2_wrote_both{false};
  std::atomic<int> attempts{0};

  std::thread t1([&] {
    long got_a = 0, got_b = 0;
    atomic_do([&](TxContext& tx) {
      const int n = attempts.fetch_add(1) + 1;
      got_a = tx.read(a);
      if (n == 1) {
        t1_read_a.store(true);
        await_flag(t2_wrote_both);
      }
      got_b = tx.read(b);  // first attempt: extension validates `a`, fails
    });
    // The retry reads the post-update values consistently.
    EXPECT_EQ(got_a, 2);
    EXPECT_EQ(got_b, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) {
    tx.write(a, 2L);
    tx.write(b, 20L);
  });
  t2_wrote_both.store(true);
  t1.join();
  EXPECT_EQ(attempts.load(), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Validation)], 1u);
}

// ---------------------------------------------------------------------------
// Serial-pending interception
// ---------------------------------------------------------------------------

TEST(SerialPending, RunningTxnAbortsWhenSerialRequested) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();
  tm_var<long> v(0);
  std::atomic<bool> t1_in_txn{false};
  std::atomic<int> attempts{0};

  std::thread t1([&] {
    atomic_do([&](TxContext& tx) {
      const int n = attempts.fetch_add(1) + 1;
      (void)tx.read(v);
      if (n == 1) {
        t1_in_txn.store(true);
        // Hold the transaction open until the main thread's serial request
        // is actually pending, then touch TM state: the access must poll the
        // pending bit and abort (releasing the read side so the serial
        // writer can proceed — the lock-subscription protocol).
        while (!serial_lock().serial_requested()) std::this_thread::yield();
      }
      (void)tx.read(v);  // aborts with SerialPending on attempt 1
    });
  });

  await_flag(t1_in_txn);
  synchronized_do([&](TxContext& tx) { tx.write(v, 5L); });
  t1.join();
  EXPECT_GE(attempts.load(), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::SerialPending)], 1u);
  EXPECT_EQ(v.unsafe_get(), 5);
}

// ---------------------------------------------------------------------------
// Orec aliasing
// ---------------------------------------------------------------------------

TEST(OrecAliasing, SameOrecTwoVariablesStillAtomic) {
  // Find two array slots whose addresses hash to the same orec, then write
  // both in one transaction: the second write must take the owned-orec
  // fast path, and commit must release it exactly once.
  ModeGuard g(ExecMode::StmCondVar);
  // The hash walks a full cycle over consecutive words (no neighbour ever
  // collides — by design), and fixed-stride allocators lay heap candidates
  // on the same cycle, so use the pigeonhole principle instead: more
  // contiguous words than orecs guarantees a colliding pair.
  constexpr int kN = kOrecCount + 4096;
  auto pool = std::make_unique<tm_var<long>[]>(kN);
  std::map<const void*, int> seen;
  int i1 = -1, i2 = -1;
  for (int i = 0; i < static_cast<int>(kN) && i2 < 0; ++i) {
    const void* o = &orec_for(&pool[i].raw());
    auto [it, fresh] = seen.emplace(o, i);
    if (!fresh) {
      i1 = it->second;
      i2 = i;
    }
  }
  ASSERT_GE(i2, 0) << "pigeonhole violated: >64K words with no orec reuse";
  auto& vars = pool;
  atomic_do([&](TxContext& tx) {
    tx.write(vars[i1], 111L);
    tx.write(vars[i2], 222L);
    EXPECT_EQ(tx.read(vars[i1]), 111);  // read-own-write through shared orec
  });
  EXPECT_EQ(vars[i1].unsafe_get(), 111);
  EXPECT_EQ(vars[i2].unsafe_get(), 222);
}

// ---------------------------------------------------------------------------
// Simulated-HTM revalidation
// ---------------------------------------------------------------------------

TEST(HtmRevalidation, ConcurrentCommitAbortsStaleReader) {
  ModeGuard g(ExecMode::Htm);
  reset_stats();
  tm_var<long> a(1), b(10);
  std::atomic<bool> t1_read_a{false}, t2_committed{false};
  std::atomic<int> attempts{0};

  std::thread t1([&] {
    long ga = 0, gb = 0;
    atomic_do([&](TxContext& tx) {
      const int n = attempts.fetch_add(1) + 1;
      ga = tx.read(a);
      if (n == 1) {
        t1_read_a.store(true);
        await_flag(t2_committed);
      }
      gb = tx.read(b);  // sequence moved: revalidate -> value of `a` changed
    });
    EXPECT_EQ(ga, 2);
    EXPECT_EQ(gb, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) {
    tx.write(a, 2L);
    tx.write(b, 20L);
  });
  t2_committed.store(true);
  t1.join();
  EXPECT_EQ(attempts.load(), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Validation)], 1u);
}

TEST(HtmRevalidation, SilentValueRestorationIsHarmless) {
  // A peer commits a different value and then commits the original back;
  // NOrec's value-based validation legitimately accepts the final state.
  ModeGuard g(ExecMode::Htm);
  tm_var<long> a(1);
  std::atomic<bool> ready{false}, done{false};
  std::thread t1([&] {
    long v1 = 0, v2 = 0;
    atomic_do([&](TxContext& tx) {
      v1 = tx.read(a);
      if (!ready.exchange(true)) await_flag(done);
      v2 = tx.read(a);
      EXPECT_EQ(v1, v2) << "reads within one txn must agree";
    });
  });
  await_flag(ready);
  atomic_do([&](TxContext& tx) { tx.write(a, 7L); });
  atomic_do([&](TxContext& tx) { tx.write(a, 1L); });
  done.store(true);
  t1.join();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Nested restart
// ---------------------------------------------------------------------------

TEST(NestedRestart, InnerRestartReexecutesWholeOuter) {
  ModeGuard g(ExecMode::StmCondVar);
  int outer_runs = 0;
  tm_var<int> v(0);
  atomic_do([&](TxContext&) {
    ++outer_runs;
    atomic_do([&](TxContext& inner) {
      inner.write(v, outer_runs);
      if (outer_runs == 1) inner.restart();  // flat nesting: outer restarts
    });
  });
  EXPECT_EQ(outer_runs, 2);
  EXPECT_EQ(v.unsafe_get(), 2);
}

// ---------------------------------------------------------------------------
// Listing-1 proxy privatization
// ---------------------------------------------------------------------------

TEST(ProxyPrivatization, SafeUnderAlwaysQuiescencePolicy) {
  // The paper's Listing 1: an updater publishes messages into a vector; a
  // privatizer nulls a slot; a *proxy* thread (not the privatizer) then
  // reads the message transactionally and uses it non-transactionally.
  // Post-2016 GCC quiesces after EVERY transaction (including read-only
  // ones) precisely to make this safe — our QuiescePolicy::Always.
  ModeGuard g(ExecMode::StmCondVar);  // Always quiesce
  struct Msg {
    long payload;
    long check;
  };
  constexpr int kSlots = 4;
  static tm_var<Msg*> vec[kSlots];
  for (auto& s : vec) s.unsafe_set(nullptr);
  std::atomic<bool> stop{false};
  std::atomic<long> corrupt{0};

  std::thread updater([&] {
    long seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int k = static_cast<int>(seq % kSlots);
      auto* m = new Msg{seq, seq ^ 0x77L};
      Msg* old = nullptr;
      atomic_do([&](TxContext& tx) {
        old = tx.read(vec[k]);
        tx.write(vec[k], m);
      });
      delete old;  // safe: commit quiesced, and olds are only reached via TM
      ++seq;
    }
  });

  std::thread proxy([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Msg* got = nullptr;
      const int k = 1;
      atomic_do([&](TxContext& tx) {
        got = tx.read(vec[k]);
        if (got) tx.write(vec[k], static_cast<Msg*>(nullptr));
      });
      if (got) {
        // Non-transactional use by the proxy.
        if ((got->payload ^ 0x77L) != got->check) corrupt.fetch_add(1);
        delete got;
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  updater.join();
  proxy.join();
  for (auto& s : vec) delete s.unsafe_get();
  EXPECT_EQ(corrupt.load(), 0);
}

// ---------------------------------------------------------------------------
// Hot-path data structures (AddrIndex, HTM read-own-write, ml_wt read sets)
// ---------------------------------------------------------------------------

TEST(AddrIndex, GrowthAndGenerationReset) {
  AddrIndex idx;
  constexpr int kN = 5000;  // forces several doublings past the initial 64
  std::vector<std::uint64_t> words(kN);
  for (int i = 0; i < kN; ++i)
    idx.insert(&words[static_cast<std::size_t>(i)],
               static_cast<std::uint32_t>(i));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(idx.find(&words[static_cast<std::size_t>(i)]),
              static_cast<std::uint32_t>(i));
  // In-place overwrite within one transaction.
  idx.insert(&words[3], 777);
  EXPECT_EQ(idx.find(&words[3]), 777u);
  // O(1) reset: everything from the old generation is stale.
  idx.new_txn();
  EXPECT_EQ(idx.find(&words[0]), AddrIndex::kNone);
  EXPECT_EQ(idx.find(&words[kN - 1]), AddrIndex::kNone);
  idx.insert(&words[7], 42);
  EXPECT_EQ(idx.find(&words[7]), 42u);
  EXPECT_EQ(idx.find(&words[8]), AddrIndex::kNone);
}

TEST(HtmReadOwnWrite, NewestOfManyBufferedWritesWins) {
  ModeGuard g(ExecMode::Htm);
  reset_stats();
  tm_var<long> x(0), y(0);
  atomic_do([&](TxContext& tx) {
    for (long k = 1; k <= 100; ++k) {
      tx.write(x, k);
      // Must come from the write buffer (memory still holds 0) and must be
      // the newest buffered value, not an earlier one.
      EXPECT_EQ(tx.read(x), k);
    }
    tx.write(y, tx.read(x) * 2);
  });
  EXPECT_EQ(x.unsafe_get(), 100);
  EXPECT_EQ(y.unsafe_get(), 200);
  const auto s = aggregate_stats();
  EXPECT_GE(s.htm_rw_hits, 101u);
}

TEST(MlWtRepeatRead, SelfOwnedIncarnationMismatchStillAborts) {
  // A transaction that read x twice, then locked x's orec AFTER a peer's
  // abort-release bumped its incarnation, stashes prev != seen and must fail
  // commit validation: both logged reads of x carry the stale observation.
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::Never, false);
  reset_stats();
  // Contiguous words are orec-disjoint, so the clock mover cannot alias x.
  auto pool = std::make_unique<tm_var<long>[]>(2);
  pool[0].unsafe_set(1);  // x
  pool[1].unsafe_set(0);  // clock mover
  std::atomic<bool> a_read{false}, peer_done{false};
  std::atomic<int> a_attempts{0};

  std::thread a([&] {
    long got = 0;
    atomic_do([&](TxContext& tx) {
      const int n = a_attempts.fetch_add(1) + 1;
      got = tx.read(pool[0]);
      // Repeat read: same orec, same observation, logged again.
      EXPECT_EQ(tx.read(pool[0]), got);
      if (n == 1) {
        a_read.store(true);
        await_flag(peer_done);
      }
      tx.write(pool[0], got + 10);
    });
    EXPECT_EQ(got, 1);
  });

  await_flag(a_read);
  // Peer speculatively writes x and restarts: the abort-release restores
  // the value but bumps the orec's incarnation (ABA protection).
  std::atomic<int> peer_runs{0};
  atomic_do([&](TxContext& tx) {
    if (peer_runs.fetch_add(1) == 0) {
      tx.write(pool[0], 99L);
      tx.restart();
    }
  });
  // Move the clock so A's commit cannot take the "nobody committed since
  // our snapshot" validation shortcut.
  atomic_do([&](TxContext& tx) { tx.write(pool[1], 1L); });
  peer_done.store(true);
  a.join();

  EXPECT_EQ(a_attempts.load(), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Validation)], 1u);
  EXPECT_EQ(pool[0].unsafe_get(), 11);
}

TEST(MlWtLargeReadSet, TenKDistinctWordReadSetCommits) {
  ModeGuard g(ExecMode::StmCondVar, QuiescePolicy::Never, false);
  reset_stats();
  // > 10k distinct words but < kOrecCount, and contiguous: every word maps
  // to its own orec, including the clock-mover word at the end.
  constexpr int kN = 12000;
  auto pool = std::make_unique<tm_var<long>[]>(kN + 1);
  for (int i = 0; i <= kN; ++i) pool[i].unsafe_set(1);
  tm_var<long>& mover = pool[kN];
  std::atomic<bool> read_done{false}, clock_moved{false};
  std::atomic<int> attempts{0};

  std::thread helper([&] {
    await_flag(read_done);
    atomic_do([&](TxContext& tx) { tx.write(mover, 2L); });
    clock_moved.store(true);
  });

  long sum1 = 0, sum2 = 0;
  atomic_do([&](TxContext& tx) {
    attempts.fetch_add(1);
    sum1 = sum2 = 0;
    for (int i = 0; i < kN; ++i) sum1 += tx.read(pool[i]);
    // Second pass repeats every read: 24000 logged entries.
    for (int i = 0; i < kN; ++i) sum2 += tx.read(pool[i]);
    // The helper's disjoint commit moves the clock, so our commit runs full
    // validation over every logged entry.
    if (!read_done.exchange(true)) await_flag(clock_moved);
    tx.write(pool[0], sum1);
    tx.write(pool[kN - 1], sum2);
  });
  helper.join();

  EXPECT_EQ(attempts.load(), 1) << "disjoint clock movement must not abort";
  EXPECT_EQ(sum1, kN);
  EXPECT_EQ(sum2, kN);
  EXPECT_EQ(pool[0].unsafe_get(), kN);
  EXPECT_EQ(pool[kN - 1].unsafe_get(), kN);
  EXPECT_EQ(mover.unsafe_get(), 2);
  EXPECT_EQ(aggregate_stats().aborts_total(), 0u);
}

// ---------------------------------------------------------------------------
// Bookkeeping invariants
// ---------------------------------------------------------------------------

TEST(StatsInvariant, StartsEqualCommitsPlusAborts) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();
  tm_var<long> v(0);
  testing::run_threads(4, [&](int) {
    for (int i = 0; i < 1000; ++i)
      atomic_do([&](TxContext& tx) { tx.write(v, tx.read(v) + 1); });
  });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.txn_starts, s.commits + s.aborts_total());
}

}  // namespace
}  // namespace tle
