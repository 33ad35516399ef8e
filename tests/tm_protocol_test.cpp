// Tests for the StmProtocol seam (src/tm/protocol/) and the TicToc
// timestamped-OCC backend.
//
//   * Seam parity: every protocol behind the seam (ml_wt, gl_wt, tictoc)
//     preserves the engine contracts — commit/abort accounting, honest
//     abort causes, counter hygiene (no protocol bumps another's rows), and
//     byte-identical seeded fault replay.
//   * TicToc semantics: write-back isolation, read-own-write, rts extension
//     committing schedules ml_wt's encounter locks abort, same-value
//     adoption, opacity of in-flight snapshots, address-ordered commit
//     locking under write-set overlap, and privatization + limbo safety.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "util/rng.hpp"

namespace tle {
namespace {

using testing::ModeGuard;
using testing::run_threads;
namespace fault = tle::fault;

/// ModeGuard plus the protocol under test; quiescence defaults to the
/// engine default (Always) unless the test says otherwise.
struct AlgoGuard {
  AlgoGuard(StmAlgo algo, ExecMode mode = ExecMode::StmCondVar)
      : g(mode) {
    config().stm_algo = algo;
    reset_stats();
  }
  ModeGuard g;
};

long read_plain(tm_var<long>& v) {
  long out = 0;
  atomic_do([&](TxContext& tx) { out = tx.read(v); });
  return out;
}

void await_flag(const std::atomic<bool>& f) {
  while (!f.load(std::memory_order_acquire)) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Seam parity matrix
// ---------------------------------------------------------------------------

class ProtocolMatrix : public ::testing::TestWithParam<StmAlgo> {};

INSTANTIATE_TEST_SUITE_P(Tm, ProtocolMatrix,
                         ::testing::Values(StmAlgo::MlWt, StmAlgo::GlWt,
                                           StmAlgo::TicToc),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(ProtocolMatrix, ContendedCounterCommitsExactlyOnce) {
  AlgoGuard g(GetParam());
  tm_var<long> counter{0};
  constexpr int kThreads = 4, kIters = 500;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIters; ++i)
      atomic_do([&](TxContext& tx) { tx.fetch_add(counter, 1L); });
  });
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits + s.serial_commits, 1u * kThreads * kIters);
  EXPECT_EQ(read_plain(counter), kThreads * kIters);
  // Honest causes only: a protocol may abort with Conflict, Validation, or
  // SerialPending (plus the governor's serial windows); nothing in this
  // workload can produce HTM-only causes.
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Capacity)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::Spurious)], 0u);
  EXPECT_EQ(s.aborts[static_cast<int>(AbortCause::StripeBusy)], 0u);
}

TEST_P(ProtocolMatrix, CounterRowsStayInTheirLane) {
  AlgoGuard g(GetParam());
  tm_var<long> a{0}, b{0};
  const std::uint64_t clock_before = gclock().load();
  run_threads(2, [&](int) {
    for (int i = 0; i < 300; ++i)
      atomic_do([&](TxContext& tx) {
        tx.fetch_add(a, 1L);
        tx.fetch_add(b, 1L);
      });
  });
  const auto s = aggregate_stats();
  if (GetParam() == StmAlgo::TicToc) {
    // No global clock: ml_wt's gclock never moves under tictoc.
    EXPECT_EQ(gclock().load(), clock_before);
  } else {
    // The tictoc rows move only under tictoc.
    EXPECT_EQ(s.tictoc_extensions, 0u);
    EXPECT_EQ(s.tictoc_extension_fails, 0u);
    EXPECT_EQ(s.tictoc_wts_waits, 0u);
    EXPECT_EQ(s.tictoc_lock_timeouts, 0u);
  }
  EXPECT_EQ(read_plain(a), 600);
  EXPECT_EQ(read_plain(b), 600);
}

TEST_P(ProtocolMatrix, SeededFaultReplayIsByteIdentical) {
  // One thread, one seed, two runs: the fault harness must consult the same
  // (hook, event) stream through the protocol's read/write/commit/rollback
  // paths both times — any protocol-internal nondeterminism (extra hook
  // consults, order changes) shows up as a Counts mismatch.
  AlgoGuard g(GetParam());
  const char* spec =
      "conflict@read=0.1,validation@commit=0.15,spurious@begin=0.02";
  auto run_once = [&] {
    fault::set_thread_stream(42);
    tm_var<long> v{0};
    for (int i = 0; i < 400; ++i)
      atomic_do([&](TxContext& tx) { tx.fetch_add(v, 1L); });
    EXPECT_EQ(read_plain(v), 400);
  };
  ASSERT_TRUE(fault::install_spec(spec, 0xABCD1234));
  run_once();
  const fault::Counts first = fault::snapshot();
  ASSERT_TRUE(fault::install_spec(spec, 0xABCD1234));
  run_once();
  const fault::Counts second = fault::snapshot();
  fault::clear();
  EXPECT_GT(first.injected_total(), 0u);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// TicToc vs ml_wt: the schedules the write-back/extension design exists for
// ---------------------------------------------------------------------------

// Writer holds an uncommitted write to `b` while a reader reads it. ml_wt
// locked b at encounter time, so the read is a Conflict abort; tictoc only
// buffered it, so the reader commits the pre-state without a single abort.
void run_in_flight_writer_schedule(StmAlgo algo, long expect_b,
                                   std::uint64_t min_aborts) {
  AlgoGuard g(algo, ExecMode::StmCondVar);
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

  // Release the writer once the schedule has played out: under tictoc the
  // reader sails past the buffered write and finishes first; under ml_wt it
  // conflict-aborts on the encounter lock and can only finish AFTER the
  // writer commits, so waiting for the reader here would deadlock.
  await_flag(writer_in_flight);
  while (!reader_done.load(std::memory_order_acquire) &&
         (min_aborts == 0 ||
          aggregate_stats().aborts[static_cast<int>(AbortCause::Conflict)] <
              min_aborts))
    std::this_thread::yield();
  release_writer.store(true);
  writer.join();
  reader.join();

  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, expect_b);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Conflict)], min_aborts);
  if (min_aborts == 0) {
    EXPECT_EQ(s.aborts_total(), 0u);
  }
  EXPECT_EQ(read_plain(b), 20);
}

TEST(TicTocSemantics, ReaderPassesThroughInFlightWriterMlWtAborts) {
  run_in_flight_writer_schedule(StmAlgo::MlWt, 20, 1);
}

TEST(TicTocSemantics, ReaderPassesThroughInFlightWriterTicTocCommits) {
  run_in_flight_writer_schedule(StmAlgo::TicToc, 10, 0);
}

TEST(TicTocSemantics, ExtensionCommitsAfterConcurrentDisjointCommit) {
  // t1 reads a; t2 commits a write to b; t1 then reads b. The fresher wts on
  // b forces t1 to advance its coverage timestamp and re-certify a — the rts
  // CAS extension — after which the transaction commits with the new b.
  AlgoGuard g(StmAlgo::TicToc);
  config().quiesce = QuiescePolicy::Never;
  reset_stats();
  tm_var<long> a{1}, b{10};
  std::atomic<bool> t1_read_a{false}, t2_committed{false};

  std::thread t1([&] {
    long got_a = 0, got_b = 0;
    atomic_do([&](TxContext& tx) {
      got_a = tx.read(a);
      t1_read_a.store(true);
      await_flag(t2_committed);
      got_b = tx.read(b);
    });
    EXPECT_EQ(got_a, 1);
    EXPECT_EQ(got_b, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) { tx.write(b, 20L); });
  t2_committed.store(true);
  t1.join();
  const auto s = aggregate_stats();
  EXPECT_EQ(s.aborts_total(), 0u) << "extension must avoid the abort";
  EXPECT_GE(s.tictoc_extensions, 1u);
}

TEST(TicTocSemantics, SameValueRewriteIsAdoptedNotAborted) {
  // t2 overwrites a with its CURRENT value (plus a real change to b). The
  // version under t1's read of a is replaced, but the data is not: tictoc's
  // value-based adoption accepts the new version and t1 commits — the same
  // schedule aborts under ml_wt, whose extension validates orec words.
  AlgoGuard g(StmAlgo::TicToc);
  config().quiesce = QuiescePolicy::Never;
  reset_stats();
  tm_var<long> a{5}, b{10};
  std::atomic<bool> t1_read_a{false}, t2_committed{false};

  std::thread t1([&] {
    long got_a = 0, got_b = 0;
    atomic_do([&](TxContext& tx) {
      got_a = tx.read(a);
      t1_read_a.store(true);
      await_flag(t2_committed);
      got_b = tx.read(b);  // forces certification of a at b's new wts
    });
    EXPECT_EQ(got_a, 5);
    EXPECT_EQ(got_b, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) {
    tx.write(a, 5L);  // same value, new version
    tx.write(b, 20L);
  });
  t2_committed.store(true);
  t1.join();
  const auto s = aggregate_stats();
  EXPECT_EQ(s.aborts_total(), 0u);
  EXPECT_EQ(s.tictoc_extension_fails, 0u);
}

TEST(TicTocSemantics, ChangedValueFailsCertification) {
  // Same shape, but t2 genuinely changes a: certification must abort the
  // reader's first attempt (Validation) and the retry sees both updates.
  AlgoGuard g(StmAlgo::TicToc);
  config().quiesce = QuiescePolicy::Never;
  reset_stats();
  tm_var<long> a{5}, b{10};
  std::atomic<bool> t1_read_a{false}, t2_committed{false};
  std::atomic<int> attempts{0};

  std::thread t1([&] {
    long got_a = 0, got_b = 0;
    atomic_do([&](TxContext& tx) {
      const int n = attempts.fetch_add(1) + 1;
      got_a = tx.read(a);
      if (n == 1) {
        t1_read_a.store(true);
        await_flag(t2_committed);
      }
      got_b = tx.read(b);
    });
    EXPECT_EQ(got_a, 6);
    EXPECT_EQ(got_b, 20);
  });

  await_flag(t1_read_a);
  atomic_do([&](TxContext& tx) {
    tx.write(a, 6L);
    tx.write(b, 20L);
  });
  t2_committed.store(true);
  t1.join();
  EXPECT_EQ(attempts.load(), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.aborts[static_cast<int>(AbortCause::Validation)], 1u);
  EXPECT_GE(s.tictoc_extension_fails, 1u);
}

TEST(TicTocSemantics, ReadOwnWriteAndLastWriteWins) {
  AlgoGuard g(StmAlgo::TicToc);
  tm_var<long> x{0}, y{7};
  long seen1 = -1, seen2 = -1, y1 = -1, y2 = -1;
  atomic_do([&](TxContext& tx) {
    tx.write(x, 1L);
    seen1 = tx.read(x);  // served from the write buffer
    tx.write(x, 2L);
    seen2 = tx.read(x);
    y1 = tx.read(y);
    y2 = tx.read(y);  // repeat read: served from the read log
  });
  EXPECT_EQ(seen1, 1);
  EXPECT_EQ(seen2, 2);
  EXPECT_EQ(y1, 7);
  EXPECT_EQ(y2, 7);
  EXPECT_EQ(read_plain(x), 2);
  const auto s = aggregate_stats();
  EXPECT_GE(s.stm_read_dedup, 1u);
}

TEST(TicTocSemantics, InFlightSnapshotsStayOpaque) {
  // Writers keep (a + b) constant; readers assert the invariant INSIDE the
  // transaction body. An in-flight reader with a torn snapshot — the zombie
  // opacity exists to prevent — trips the EXPECT even if that attempt would
  // later abort.
  AlgoGuard g(StmAlgo::TicToc);
  constexpr long kTotal = 1000;
  tm_var<long> a{kTotal}, b{0};
  std::atomic<bool> stop{false};
  std::atomic<long> torn{0};

  std::thread writer([&] {
    Xoshiro256 rng(0x5EED);
    while (!stop.load(std::memory_order_relaxed)) {
      const long d = static_cast<long>(rng.below(10)) + 1;
      atomic_do([&](TxContext& tx) {
        const long av = tx.read(a);
        tx.write(a, av - d);
        tx.write(b, kTotal - (av - d));
      });
    }
  });
  run_threads(3, [&](int) {
    for (int i = 0; i < 4000; ++i)
      atomic_do([&](TxContext& tx) {
        const long av = tx.read(a);
        const long bv = tx.read(b);
        if (av + bv != kTotal) torn.fetch_add(1);
      });
  });
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn.load(), 0) << "a zombie observed a torn snapshot";
}

TEST(TicTocSemantics, OverlappingWriteSetsCommitDeadlockFree) {
  // Heavy write-set overlap with randomized footprints: address-ordered
  // commit locking plus bounded waits must always make progress, and every
  // increment must land exactly once.
  AlgoGuard g(StmAlgo::TicToc);
  constexpr int kThreads = 8, kIters = 1500, kCells = 32, kPick = 4;
  std::vector<tm_var<long>> cells(kCells);
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(0xC0FFEE + static_cast<std::uint64_t>(tid));
    for (int i = 0; i < kIters; ++i)
      atomic_do([&](TxContext& tx) {
        for (int k = 0; k < kPick; ++k)
          tx.fetch_add(cells[rng.below(kCells)], 1L);
      });
  });
  long sum = 0;
  atomic_do([&](TxContext& tx) {
    sum = 0;  // re-run safe
    for (auto& c : cells) sum += tx.read(c);
  });
  EXPECT_EQ(sum, 1L * kThreads * kIters * kPick);
  const auto s = aggregate_stats();
  EXPECT_EQ(s.commits + s.serial_commits, 1u * kThreads * kIters + 1u);
}

TEST(TicTocSemantics, LockWaitCountersMoveWhenCommitWindowWidens) {
  // A perturbation delay inside the lock->certify->publish window holds the
  // write-set orecs locked long enough that concurrent readers observably
  // wait (and, with the short default spin budget, time out into Conflict).
  // The readers keep reading until the writer's last commit, so one of
  // them sits inside a 2 ms locked window unless it is descheduled for the
  // writer's whole run.
  AlgoGuard g(StmAlgo::TicToc);
  ASSERT_TRUE(fault::install_spec("delay@tt_commit=1/2000000", 77));
  tm_var<long> hot{0};
  std::atomic<bool> writer_done{false};
  run_threads(4, [&](int tid) {
    fault::set_thread_stream(static_cast<std::uint32_t>(tid));
    if (tid == 0) {
      for (int i = 0; i < 40; ++i)
        atomic_do([&](TxContext& tx) { tx.fetch_add(hot, 1L); });
      writer_done.store(true, std::memory_order_release);
    } else {
      while (!writer_done.load(std::memory_order_acquire))
        atomic_do([&](TxContext& tx) { (void)tx.read(hot); });
    }
  });
  fault::clear();
  const auto s = aggregate_stats();
  EXPECT_GT(s.tictoc_wts_waits, 0u);
  EXPECT_EQ(read_plain(hot), 40);
}

// ---------------------------------------------------------------------------
// Privatization + limbo under tictoc
// ---------------------------------------------------------------------------

TEST(TicTocPrivatization, DetachAndFreeIsQuiesceSafe) {
  // The Listing-1 pattern on the tictoc backend: privatize a box, mutate it
  // non-transactionally, and tx.free it so reclamation rides the limbo
  // list. Zombie readers must keep landing on live storage (ASan-visible if
  // not) and must never observe the private mutations as committed state.
  AlgoGuard g(StmAlgo::TicToc);
  struct Box {
    tm_var<long> a{0};
    tm_var<long> b{0};
  };
  tm_var<Box*> current{new Box};
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  std::thread updater([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      atomic_do([&](TxContext& tx) {
        Box* box = tx.read(current);
        const long v = tx.read(box->a) + 1;
        tx.write(box->a, v);
        tx.write(box->b, v);
      });
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      atomic_do([&](TxContext& tx) {
        Box* box = tx.read(current);
        if (tx.read(box->a) != tx.read(box->b)) violations.fetch_add(1);
      });
    }
  });
  for (int i = 0; i < 200; ++i) {
    Box* fresh = new Box;
    Box* old = nullptr;
    atomic_do([&](TxContext& tx) {
      old = tx.read(current);
      tx.write(current, fresh);
    });
    // Post-commit + post-quiescence: private. Scribble, then free through
    // the TM so the storage waits out its grace period in limbo.
    old->a.unsafe_set(-1);
    old->b.unsafe_set(-2);
    atomic_do([&](TxContext& tx) { tx.free(old); });
  }
  stop.store(true);
  updater.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  const auto s = aggregate_stats();
  EXPECT_GE(s.tm_frees, 200u);
  atomic_do([&](TxContext& tx) { tx.free(tx.read(current)); });
}

// ---------------------------------------------------------------------------
// Config surface
// ---------------------------------------------------------------------------

TEST(TicTocConfig, ToStringRoundTrip) {
  EXPECT_STREQ(to_string(StmAlgo::TicToc), "tictoc");
  EXPECT_STREQ(to_string(StmAlgo::MlWt), "ml_wt");
  EXPECT_STREQ(to_string(StmAlgo::GlWt), "gl_wt");
}

}  // namespace
}  // namespace tle
