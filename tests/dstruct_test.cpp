// Tests for the transactional set data structures: reference-model property
// tests, structural invariants, and concurrent linearizability checks across
// every execution mode.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "dstruct/tm_hash_set.hpp"
#include "dstruct/tm_list_set.hpp"
#include "dstruct/tm_rbtree_set.hpp"
#include "dstruct/tm_skiplist_set.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace tle {
namespace {

using testing::kAllModes;
using testing::ModeGuard;
using testing::run_threads;

// ---------------------------------------------------------------------------
// Generic checkers
// ---------------------------------------------------------------------------

/// Random single-threaded op sequence cross-checked against std::set.
template <typename SetT>
void reference_check(ExecMode mode, int ops, long keyspace, std::uint64_t seed) {
  ModeGuard g(mode);
  SetT s;
  std::set<long> ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const long key = static_cast<long>(rng.below(static_cast<std::uint64_t>(keyspace)));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(s.insert(key), ref.insert(key).second) << "op " << i;
        break;
      case 1:
        ASSERT_EQ(s.remove(key), ref.erase(key) > 0) << "op " << i;
        break;
      default:
        ASSERT_EQ(s.contains(key), ref.count(key) > 0) << "op " << i;
        break;
    }
  }
  ASSERT_EQ(s.size_unsafe(), ref.size());
  for (long k = 0; k < keyspace; ++k) ASSERT_EQ(s.contains(k), ref.count(k) > 0);
}

/// Concurrent smoke: per-thread disjoint key ranges; every thread's inserts
/// must all be present, removals all absent, and sizes must add up.
template <typename SetT>
void disjoint_threads_check(ExecMode mode) {
  ModeGuard g(mode);
  SetT s;
  constexpr int kThreads = 4;
  constexpr long kPerThread = 64;
  run_threads(kThreads, [&](int t) {
    const long base = t * kPerThread;
    for (long i = 0; i < kPerThread; ++i) ASSERT_TRUE(s.insert(base + i));
    for (long i = 0; i < kPerThread; i += 2) ASSERT_TRUE(s.remove(base + i));
  });
  EXPECT_EQ(s.size_unsafe(),
            static_cast<std::size_t>(kThreads * kPerThread / 2));
  for (int t = 0; t < kThreads; ++t) {
    const long base = t * kPerThread;
    for (long i = 0; i < kPerThread; ++i)
      EXPECT_EQ(s.contains(base + i), i % 2 == 1);
  }
}

/// Contended stress: all threads hammer a small keyspace; afterwards the
/// net insert/remove effect per key must match a sequential replay invariant
/// (we verify a weaker but telling property: the structure's size equals the
/// count of keys reported present, and no operation result was impossible).
template <typename SetT>
void contended_stress(ExecMode mode, long keyspace, int ops_per_thread) {
  ModeGuard g(mode);
  SetT s;
  std::atomic<long> net{0};  // inserts-succeeded minus removes-succeeded
  run_threads(4, [&](int t) {
    Xoshiro256 rng(777 + static_cast<unsigned>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      const long key = static_cast<long>(rng.below(static_cast<std::uint64_t>(keyspace)));
      if (rng.chance(0.5)) {
        if (s.insert(key)) net.fetch_add(1);
      } else {
        if (s.remove(key)) net.fetch_sub(1);
      }
    }
  });
  // Successful inserts minus successful removes must equal the final size:
  // this catches lost updates, double-inserts, and phantom removals.
  EXPECT_EQ(static_cast<long>(s.size_unsafe()), net.load());
  long present = 0;
  for (long k = 0; k < keyspace; ++k) present += s.contains(k) ? 1 : 0;
  EXPECT_EQ(present, net.load());
}

// ---------------------------------------------------------------------------
// Parameterized over modes × structures
// ---------------------------------------------------------------------------

class DsModes : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(Dstruct, DsModes, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& c : s)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return s;
                         });

TEST_P(DsModes, ListMatchesReferenceModel) {
  reference_check<TmListSet>(GetParam(), 3000, 64, 11);
}

TEST_P(DsModes, HashMatchesReferenceModel) {
  reference_check<TmHashSet>(GetParam(), 3000, 256, 22);
}

TEST_P(DsModes, RbTreeMatchesReferenceModel) {
  reference_check<TmRbTreeSet>(GetParam(), 3000, 256, 33);
}

TEST_P(DsModes, SkipListMatchesReferenceModel) {
  reference_check<TmSkipListSet>(GetParam(), 3000, 256, 44);
}

TEST_P(DsModes, ListDisjointThreads) { disjoint_threads_check<TmListSet>(GetParam()); }
TEST_P(DsModes, HashDisjointThreads) { disjoint_threads_check<TmHashSet>(GetParam()); }
TEST_P(DsModes, RbTreeDisjointThreads) {
  disjoint_threads_check<TmRbTreeSet>(GetParam());
}
TEST_P(DsModes, SkipListDisjointThreads) {
  disjoint_threads_check<TmSkipListSet>(GetParam());
}

TEST_P(DsModes, ListContendedStress) {
  contended_stress<TmListSet>(GetParam(), 64, 1500);
}
TEST_P(DsModes, HashContendedStress) {
  contended_stress<TmHashSet>(GetParam(), 256, 1500);
}
TEST_P(DsModes, RbTreeContendedStress) {
  contended_stress<TmRbTreeSet>(GetParam(), 256, 1500);
}
TEST_P(DsModes, SkipListContendedStress) {
  contended_stress<TmSkipListSet>(GetParam(), 256, 1500);
}

TEST_P(DsModes, SkipListInvariantsHoldAfterConcurrentOps) {
  ModeGuard g(GetParam());
  TmSkipListSet s;
  run_threads(4, [&](int t) {
    Xoshiro256 rng(70 + static_cast<unsigned>(t));
    for (int i = 0; i < 800; ++i) {
      const long key = static_cast<long>(rng.below(256));
      if (rng.chance(0.5))
        s.insert(key);
      else
        s.remove(key);
    }
  });
  EXPECT_TRUE(s.valid_unsafe());
}


TEST(SkipList, DeterministicShape) {
  ModeGuard g(ExecMode::Lock);
  TmSkipListSet a, b;
  // Same key set in different orders: identical structure by construction.
  for (long k = 0; k < 128; ++k) a.insert(k);
  for (long k = 127; k >= 0; --k) b.insert(k);
  EXPECT_TRUE(a.valid_unsafe());
  EXPECT_TRUE(b.valid_unsafe());
  EXPECT_EQ(a.size_unsafe(), b.size_unsafe());
}

// ---------------------------------------------------------------------------
// Structure-specific invariants
// ---------------------------------------------------------------------------

TEST_P(DsModes, ListStaysSorted) {
  ModeGuard g(GetParam());
  TmListSet s;
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) s.insert(static_cast<long>(rng.below(64)));
  for (int i = 0; i < 200; ++i) s.remove(static_cast<long>(rng.below(64)));
  EXPECT_TRUE(s.sorted_unsafe());
}

TEST_P(DsModes, RbTreeInvariantsHoldAfterRandomOps) {
  ModeGuard g(GetParam());
  TmRbTreeSet s;
  Xoshiro256 rng(6);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) s.insert(static_cast<long>(rng.below(256)));
    for (int i = 0; i < 60; ++i) s.remove(static_cast<long>(rng.below(256)));
    ASSERT_TRUE(s.valid_unsafe()) << "round " << round;
  }
}

TEST_P(DsModes, RbTreeInvariantsHoldAfterConcurrentOps) {
  ModeGuard g(GetParam());
  TmRbTreeSet s;
  run_threads(4, [&](int t) {
    Xoshiro256 rng(60 + static_cast<unsigned>(t));
    for (int i = 0; i < 800; ++i) {
      const long key = static_cast<long>(rng.below(256));
      if (rng.chance(0.5))
        s.insert(key);
      else
        s.remove(key);
    }
  });
  EXPECT_TRUE(s.valid_unsafe());
}

TEST(RbTree, AscendingAndDescendingInsertionsBalance) {
  ModeGuard g(ExecMode::Lock);
  {
    TmRbTreeSet s;
    for (long k = 0; k < 512; ++k) ASSERT_TRUE(s.insert(k));
    EXPECT_TRUE(s.valid_unsafe());
    EXPECT_EQ(s.size_unsafe(), 512u);
  }
  {
    TmRbTreeSet s;
    for (long k = 511; k >= 0; --k) ASSERT_TRUE(s.insert(k));
    EXPECT_TRUE(s.valid_unsafe());
    for (long k = 0; k < 512; ++k) ASSERT_TRUE(s.remove(k));
    EXPECT_EQ(s.size_unsafe(), 0u);
    EXPECT_TRUE(s.valid_unsafe());
  }
}

TEST(RbTree, RemoveFromEmptyAndDoubleInsert) {
  ModeGuard g(ExecMode::StmCondVar);
  TmRbTreeSet s;
  EXPECT_FALSE(s.remove(5));
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.remove(5));
  EXPECT_FALSE(s.remove(5));
  EXPECT_TRUE(s.valid_unsafe());
}

TEST(HashSet, SingleBucketDegeneratesToList) {
  ModeGuard g(ExecMode::StmCondVar);
  TmHashSet s(1);
  for (long k = 0; k < 32; ++k) EXPECT_TRUE(s.insert(k));
  EXPECT_EQ(s.size_unsafe(), 32u);
  for (long k = 0; k < 32; ++k) EXPECT_TRUE(s.contains(k));
  for (long k = 0; k < 32; k += 2) EXPECT_TRUE(s.remove(k));
  EXPECT_EQ(s.size_unsafe(), 16u);
}

// The Figure-5 SelectNoQ behaviour: reads and inserts skip quiescence, but
// successful removals (which free memory) still quiesce.
TEST(SelectNoQ, RemovalQuiescesInsertDoesNot) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  TmListSet s;
  reset_stats();
  s.insert(1);
  s.contains(1);
  auto mid = aggregate_stats();
  EXPECT_EQ(mid.quiesce_calls, 0u) << "insert/contains must skip quiescence";
  s.remove(1);
  auto fin = aggregate_stats();
  EXPECT_GE(fin.quiesce_calls, 1u) << "freeing removal must quiesce";
  EXPECT_GE(fin.noquiesce_honored, 2u);
}

}  // namespace
}  // namespace tle
