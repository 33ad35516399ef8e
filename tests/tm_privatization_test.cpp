// Privatization-safety stress tests (paper Section IV, Listings 1–2).
//
// The scenario quiescence exists for: a thread transactionally detaches
// ("privatizes") shared data, then accesses it non-transactionally. Without
// quiescence, a concurrently-running doomed transaction could still perform
// write-through speculative stores or undo stores into the privatized
// memory, racing with the private accesses. With quiescence (GCC's
// post-2016 behaviour, our QuiescePolicy::Always), the privatizer's commit
// waits until every concurrent transaction has committed or fully undone.
//
// The simulated-HTM half of the story is different: on real silicon a
// privatizing commit coherence-aborts speculative readers instantly, so HTM
// needs no quiescence — but our simulation validates lazily, leaving a
// window where a zombie reader issues one more load of the detached block.
// The PrivatizationZombie tests below pin that window open deterministically
// and prove the mode-aware routing (tm_private_delete + htm_readers_possible)
// keeps the storage alive through it. The stress suites run across the full
// exec-mode × commit-protocol matrix so the routing decision is protocol-
// independent by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sync/bounded_queue.hpp"
#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/meta.hpp"

namespace tle {
namespace {

using testing::ModeGuard;

/// Optimizer-proof value sink.
inline void sink(long v) { asm volatile("" : : "r"(v) : "memory"); }

/// A pair kept equal by transactional updaters; privatizers detach the box
/// and verify/mutate it non-transactionally.
struct Box {
  tm_var<long> a{0};
  tm_var<long> b{0};
};

// Exec-mode × commit-protocol matrix: the reclamation-routing decision must
// be identical whichever protocol instance (ml_wt / gl_wt / tictoc) sits
// behind the seam, and in HTM mode must not depend on the (unused) STM
// algorithm at all.
using PrivParam = std::tuple<ExecMode, StmAlgo>;

class PrivatizationStress : public ::testing::TestWithParam<PrivParam> {};

INSTANTIATE_TEST_SUITE_P(
    Tm, PrivatizationStress,
    ::testing::Combine(::testing::Values(ExecMode::StmCondVar,
                                         ExecMode::StmCondVarNoQ,
                                         ExecMode::Htm),
                       ::testing::Values(StmAlgo::MlWt, StmAlgo::GlWt,
                                         StmAlgo::TicToc)),
    [](const auto& info) {
      std::string s = std::string(to_string(std::get<0>(info.param))) + "_" +
                      to_string(std::get<1>(info.param));
      for (auto& c : s)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return s;
    });

TEST_P(PrivatizationStress, DetachedBoxNeverRacesWithZombies) {
  ModeGuard g(std::get<0>(GetParam()));
  config().stm_algo = std::get<1>(GetParam());
  tm_var<Box*> current(new Box);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  // Updaters: keep (a == b) inside the currently-installed box.
  auto updater = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      atomic_do([&](TxContext& tx) {
        Box* box = tx.read(current);
        const long v = tx.read(box->a) + 1;
        tx.write(box->a, v);
        tx.write(box->b, v);
      });
    }
  };

  // Privatizer: swap in a fresh box, then use the old one privately.
  auto privatizer = [&] {
    for (int i = 0; i < 300 && !stop.load(); ++i) {
      Box* fresh = new Box;
      Box* old = nullptr;
      atomic_do([&](TxContext& tx) {
        old = tx.read(current);
        tx.write(current, fresh);
      });
      // Post-commit (and post-quiescence): `old` is private. Any zombie
      // write-through or undo store arriving now would break a == b or
      // clobber our private mutations.
      for (int k = 0; k < 50; ++k) {
        const long a = old->a.unsafe_get();
        const long b = old->b.unsafe_get();
        if (a != b) violations.fetch_add(1);
        old->a.unsafe_set(a + 1);
        old->b.unsafe_set(a + 1);
      }
      // Mode-aware routed free: under HTM mode a lazily-validating reader
      // may still be in flight, so the block must ride the limbo machinery
      // instead of returning to the allocator immediately.
      tm_private_delete(old);
    }
    stop.store(true);
  };

  std::thread t1(updater), t2(updater), t3(privatizer);
  t1.join();
  t2.join();
  t3.join();
  tm_private_delete(current.unsafe_get());
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(PrivatizationStress, TransactionalFreeOfHotNodeIsSafe) {
  // Remove-and-free under contention: the committing remover must quiesce
  // before the node is recycled (the §IV-B allocator rule), even in the
  // NoQuiesce-honoring mode.
  ModeGuard g(std::get<0>(GetParam()));
  config().stm_algo = std::get<1>(GetParam());
  struct Node {
    tm_var<long> value{0};
  };
  tm_var<Node*> slot(nullptr);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      atomic_do([&](TxContext& tx) {
        tx.no_quiesce();
        Node* n = tx.read(slot);
        if (n) {
          // Dereference inside the transaction: if a free raced ahead of a
          // zombie, ASan/valgrind (and likely a crash) would catch it.
          sink(tx.read(n->value));
        }
      });
    }
  });

  for (int i = 0; i < 2000; ++i) {
    atomic_do([&](TxContext& tx) {
      Node* n = tx.create<Node>();
      n->value.unsafe_set(i);
      tx.write(slot, n);
    });
    atomic_do([&](TxContext& tx) {
      Node* n = tx.read(slot);
      tx.write(slot, static_cast<Node*>(nullptr));
      if (n) tx.destroy(n);  // forces quiescence before the free
    });
  }
  stop.store(true);
  reader.join();
  SUCCEED();
}

TEST(Privatization, FenceAllowsManualPublication) {
  ModeGuard g(ExecMode::StmCondVar);
  tm_var<int> flag(0);
  atomic_do([&](TxContext& tx) { tx.write(flag, 1); });
  tm_fence();  // all transactions drained: non-tx access is now safe
  EXPECT_EQ(flag.unsafe_get(), 1);
}

TEST(Privatization, Listing2QueueShapeHonorsNoQuiesceAsymmetry) {
  // Producer transactions request NoQuiesce (never privatize); consumer
  // pops do not (they privatize). Verify via counters in the honoring mode.
  ModeGuard g(ExecMode::StmCondVarNoQ);
  bounded_queue<long> q(8);
  reset_stats();
  for (long i = 0; i < 4; ++i) q.push(i);
  const auto after_push = aggregate_stats();
  EXPECT_EQ(after_push.quiesce_calls, 0u) << "producers must not quiesce";
  EXPECT_GE(after_push.noquiesce_honored, 4u);
  for (long i = 0; i < 4; ++i) ASSERT_TRUE(q.pop().has_value());
  const auto after_pop = aggregate_stats();
  EXPECT_GE(after_pop.quiesce_calls, 4u)
      << "successful pops privatize and must quiesce";
}

// ---------------------------------------------------------------------------
// The simulated-HTM privatization gap (deterministic reproductions)
// ---------------------------------------------------------------------------

/// Holds one simulated-HTM reader open mid-transaction: the spawned thread
/// enters a transaction, reads `cell`, then parks inside the body until
/// release() — giving the main thread a guaranteed htm_readers_possible()
/// window to act in.
class HtmReaderHold {
 public:
  explicit HtmReaderHold(tm_var<long>& cell) {
    thread_ = std::thread([this, &cell] {
      atomic_do([&](TxContext& tx) {
        sink(tx.read(cell));
        entered_.store(true, std::memory_order_release);
        while (!released_.load(std::memory_order_acquire)) {
        }
      });
    });
    while (!entered_.load(std::memory_order_acquire)) {
    }
  }

  void release() { released_.store(true, std::memory_order_release); }

  ~HtmReaderHold() {
    release();
    thread_.join();
  }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
  std::thread thread_;
};

/// A Box holding 41 in both cells, placed on a different commit stripe than
/// `current`: a privatizing swap of `current` then bumps only current's
/// stripe, so a zombie's later read of the box's second cell still passes
/// its own-stripe check — the narrowest form of the window. nullptr if no
/// placement was found.
Box* box_off_stripe_of(const tm_var<Box*>& current) {
  Box* victim = nullptr;
  std::vector<Box*> rejects;
  for (int i = 0; i < 256 && !victim; ++i) {
    Box* b = new Box;
    if (htm_stripe_index(&b->a) != htm_stripe_index(&current))
      victim = b;
    else
      rejects.push_back(b);
  }
  for (Box* b : rejects) delete b;
  if (victim) {
    victim->a.unsafe_set(41);
    victim->b.unsafe_set(41);
  }
  return victim;
}

/// The zombie reader of both rendezvous tests: reads `current` and its
/// first cell, signals stage 1, waits for stage 2 (the privatizer has
/// committed and freed), then loads the second cell and records what the
/// first attempt saw in `zombie_b` (retries read the fresh box).
std::thread zombie_reader(tm_var<Box*>& current, std::atomic<int>& stage,
                          std::atomic<long>& zombie_b) {
  return std::thread([cur = &current, st = &stage, zb = &zombie_b] {
    atomic_do([&](TxContext& tx) {
      Box* box = tx.read(*cur);
      sink(tx.read(box->a));
      int expect0 = 0;
      st->compare_exchange_strong(expect0, 1, std::memory_order_acq_rel);
      while (st->load(std::memory_order_acquire) < 2) {
      }
      const long b = tx.read(box->b);  // the zombie load
      long unset = -1;
      zb->compare_exchange_strong(unset, b, std::memory_order_acq_rel);
    });
  });
}

TEST(PrivatizationZombie, ZombieHtmReaderSurvivesPrivatizingFree) {
  // The §IV identity "HTM needs no quiescence" assumes coherence aborts.
  // Our simulated HTM validates lazily, so a reader that cut a clean
  // snapshot can issue one more fast-path load of a privatized block after
  // the privatizer committed. This test pins that exact interleaving open
  // with an in-body rendezvous and proves tm_private_delete keeps the block
  // alive through it. With an immediate free instead of routing, the
  // sentinel allocation below recycles the storage and the zombie reads
  // 2222 (or ASan reports heap-use-after-free) — the pre-fix failure.
  ModeGuard g(ExecMode::Htm);
  reset_stats();

  tm_var<Box*> current(nullptr);
  Box* victim = box_off_stripe_of(current);
  ASSERT_NE(victim, nullptr) << "could not place box off current's stripe";
  current.unsafe_set(victim);

  std::atomic<int> stage{0};       // 0 = start, 1 = reader mid-txn, 2 = freed
  std::atomic<long> zombie_b{-1};  // what the zombie load returned
  std::thread reader = zombie_reader(current, stage, zombie_b);
  while (stage.load(std::memory_order_acquire) < 1) {
  }
  // Privatize: swap the box out and commit. HTM commits never quiesce, so
  // control returns here while the reader still holds its snapshot.
  Box* fresh = new Box;
  atomic_do([&](TxContext& tx) { tx.write(current, fresh); });
  // Mode-aware routed free: the reader's slot is odd + htm_active, so this
  // must park `victim` in limbo rather than freeing it.
  tm_private_delete(victim);
  // Try to recycle the storage: with an (incorrect) immediate free the
  // allocator hands victim's block straight back and these sentinel writes
  // become the zombie's view of box->b.
  Box* sentinel = new Box;
  sentinel->a.unsafe_set(1111);
  sentinel->b.unsafe_set(2222);
  stage.store(2, std::memory_order_release);
  reader.join();

  EXPECT_EQ(zombie_b.load(), 41)
      << "zombie HTM reader observed recycled storage: the privatizing free "
         "was not routed through limbo";
  const auto s = aggregate_stats();
  EXPECT_GE(s.priv_limbo_routed, 1u);

  // Cleanup: drain the routed block now that the reader is gone.
  tm_private_delete(sentinel);
  current.unsafe_set(nullptr);
  tm_private_delete(fresh);
  tm_fence();
  tm_private_delete(new long(0));  // immediate path: opportunistic drain
}

TEST(PrivatizationZombie, RoutedBlocksDrainOnNextGracePeriod) {
  // Accounting proof for the routing seam: a free issued while an HTM
  // reader is in flight is routed (priv_limbo_routed), stays parked while
  // the reader lives, and drains back to the allocator on the next grace
  // period (limbo_drained / tm_frees).
  ModeGuard g(ExecMode::Htm);
  tm_var<long> cell(7);
  reset_stats();

  {
    HtmReaderHold hold(cell);
    tm_private_delete(new long(42));  // reader in flight: must route
    const auto mid = aggregate_stats();
    EXPECT_EQ(mid.priv_limbo_routed, 1u);
    EXPECT_EQ(mid.priv_immediate_frees, 0u);
  }  // reader released and joined

  // One full grace period certifies the batch; the next reclamation touch
  // (an immediate-path free) opportunistically drains it.
  tm_fence();
  tm_private_delete(new long(0));
  const auto after = aggregate_stats();
  EXPECT_GE(after.priv_immediate_frees, 1u);
  EXPECT_GE(after.limbo_drained, 1u) << "routed batch failed to drain";
  EXPECT_GE(after.tm_frees, 1u);
}

TEST(PrivatizationZombie, NoQuiesceHtmFreeWaitsInLimboForReaders) {
  // no_quiesce() claims a section needs no quiescence. Under HTM the
  // request is only counted: HTM commits never quiesce, and every HTM free
  // waits in limbo for a grace period whatever the section claims. Here the
  // freeing commit calls no_quiesce() while a zombie reader still holds the
  // block: the block must stay parked (limbo_enqueued moves, tm_frees does
  // not, and the zombie's load reads live storage; ASan flags any early
  // release) until tm_fence() lets it drain.
  ModeGuard g(ExecMode::Htm);
  tm_var<Box*> current(nullptr);
  Box* victim = box_off_stripe_of(current);
  ASSERT_NE(victim, nullptr) << "could not place box off current's stripe";
  current.unsafe_set(victim);
  // Empty this thread's limbo first (an earlier test in the same process
  // may have left a batch), so every free counted below is this block.
  tm_fence();
  tm_private_delete(new long(0));
  reset_stats();

  std::atomic<int> stage{0};
  std::atomic<long> zombie_b{-1};
  std::thread reader = zombie_reader(current, stage, zombie_b);
  while (stage.load(std::memory_order_acquire) < 1) {
  }
  Box* fresh = new Box;
  atomic_do([&](TxContext& tx) {
    tx.no_quiesce();
    tx.destroy(tx.read(current));
    tx.write(current, fresh);
  });
  const auto held = aggregate_stats();
  EXPECT_EQ(held.noquiesce_requests, 1u);
  EXPECT_EQ(held.limbo_enqueued, 1u) << "the freed block skipped limbo";
  EXPECT_EQ(held.tm_frees, 0u)
      << "the freed block left limbo while an HTM reader held it";
  // With an (incorrect) release the allocator could hand the block back
  // here, and these values would become the zombie's view of box->b.
  Box* sentinel = new Box;
  sentinel->a.unsafe_set(1111);
  sentinel->b.unsafe_set(2222);
  stage.store(2, std::memory_order_release);
  reader.join();
  EXPECT_EQ(zombie_b.load(), 41)
      << "zombie HTM reader observed freed storage";

  // A grace period now covers the batch; the next commit drains it.
  tm_fence();
  atomic_do([&](TxContext& tx) { tx.write(current, fresh); });
  const auto after = aggregate_stats();
  EXPECT_EQ(after.limbo_drained, 1u);
  EXPECT_EQ(after.tm_frees, 1u);
  delete sentinel;
  delete fresh;
}

TEST(PrivatizationZombie, HtmZombieFaultHookWidensWindowSafely) {
  // The htm_zombie perturbation hook sits exactly in the zombie window: a
  // simulated-HTM read that subscribed its stripe but has not yet issued
  // the load. Delaying there stretches every reader's exposure to a
  // concurrent privatizing free. With routing in place the stress must
  // stay violation-free; the snapshot proves the hook actually fired.
  ModeGuard g(ExecMode::Htm);
  ASSERT_TRUE(fault::install_spec("delay@htm_zombie=0.25/20000", 20260809));

  tm_var<Box*> current(new Box);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      atomic_do([&](TxContext& tx) {
        Box* box = tx.read(current);
        const long a = tx.read(box->a);
        const long b = tx.read(box->b);  // delayed by the plan
        if (a != b) violations.fetch_add(1);
      });
    }
  });

  for (int i = 0; i < 400; ++i) {
    Box* fresh = new Box;
    fresh->a.unsafe_set(i);
    fresh->b.unsafe_set(i);
    Box* old = nullptr;
    atomic_do([&](TxContext& tx) {
      old = tx.read(current);
      tx.write(current, fresh);
    });
    tm_private_delete(old);  // reader likely mid-window: routes
  }
  stop.store(true);
  reader.join();

  const fault::Counts counts = fault::snapshot();
  fault::clear();
  EXPECT_GT(counts.delays[static_cast<int>(fault::Hook::HtmZombieLoad)], 0u)
      << "htm_zombie hook never fired";
  EXPECT_EQ(violations.load(), 0);
  tm_private_delete(current.unsafe_get());
  tm_fence();
  tm_private_delete(new long(0));  // drain whatever the loop routed
}

}  // namespace
}  // namespace tle
