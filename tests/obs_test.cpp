// Tests for the observability layer (PR: per-site profiler + enriched
// flight recorder + exports):
//   * StatsSnapshot/aggregate_stats cover every TxStats counter (X-macro),
//   * log2 latency histogram bucket boundaries,
//   * site registry identity and the id-clamp for out-of-range sites,
//   * per-site abort attribution for every AbortCause,
//   * counter conservation: per-site sums equal the thread totals, every
//     attempt ends as one commit or abort, and the site reset zeroes all,
//   * one writer per counter: owner-thread adds stay exact and monotone
//     while a fourth thread polls both aggregations (TSan-clean),
//   * trace ring wrap-around, field round-trip, and a concurrent
//     emit/snapshot/reset stress (TSan-clean),
//   * export smoke: tle-obs/v1 JSON, the ranked site table, Chrome trace.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/audit.hpp"
#include "tm/obs/export.hpp"
#include "tm/obs/histogram.hpp"
#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "tm/trace.hpp"

namespace tle {
namespace {

using testing::ModeGuard;
using testing::run_threads;

/// Enables per-site profiling for the scope, starting from zeroed tables.
struct ProfileGuard {
  ProfileGuard() {
    obs::reset_site_profiles();
    obs::profile_enable(true);
  }
  ~ProfileGuard() { obs::profile_enable(false); }
};

struct TraceGuard {
  TraceGuard() {
    trace::reset();
    trace::enable(true);
  }
  ~TraceGuard() {
    trace::enable(false);
    trace::reset();
  }
};

/// Aggregated profile for the site named `name` ({} when it never ran).
obs::SiteProfile profile_of(const char* name) {
  for (const obs::SiteProfile& p : obs::collect_site_profiles())
    if (p.info.name && std::strcmp(p.info.name, name) == 0) return p;
  return {};
}

/// Live (mid-transaction-safe) sum of one site's aborts for one cause.
std::uint64_t live_site_aborts(std::uint16_t site, AbortCause c) {
  std::uint64_t t = 0;
  for (int s = 0; s < kMaxThreads; ++s)
    if (obs::SiteCounters* tbl = obs::peek_site_table(s))
      t += tbl[site].aborts[static_cast<int>(c)].load(
          std::memory_order_relaxed);
  return t;
}

// ---------------------------------------------------------------------------
// Stats coverage: the X-macro keeps TxStats, StatsSnapshot and aggregation
// in lockstep
// ---------------------------------------------------------------------------

TEST(ObsStats, AggregationCoversEveryCounter) {
  ModeGuard g(ExecMode::StmCondVar);
  reset_stats();

  // Give every counter of this thread's slot a distinct nonzero value.
  TxStats& mine = my_slot().stats;
  std::vector<std::string> tx_names;
  std::uint64_t seed = 1;
  mine.for_each_counter([&](const char* name, TxStats::Counter& c) {
    tx_names.push_back(name);
    c.store(seed++, std::memory_order_relaxed);
  });
  for (int a = 0; a < kAbortCauseCount; ++a)
    mine.aborts[a].store(1000 + static_cast<std::uint64_t>(a),
                         std::memory_order_relaxed);

  EXPECT_EQ(static_cast<int>(tx_names.size()), kTxStatsCounterCount);

  // The snapshot must visit the same counters, same order, same values.
  const StatsSnapshot s = aggregate_stats();
  std::vector<std::string> snap_names;
  std::uint64_t expect = 1;
  s.for_each_counter([&](const char* name, std::uint64_t v, const char* desc) {
    snap_names.push_back(name);
    EXPECT_EQ(v, expect) << "counter " << name << " lost by aggregation";
    EXPECT_NE(desc, nullptr);
    ++expect;
  });
  EXPECT_EQ(snap_names, tx_names);
  for (int a = 0; a < kAbortCauseCount; ++a)
    EXPECT_EQ(s.aborts[a], 1000 + static_cast<std::uint64_t>(a));

  reset_stats();
  const StatsSnapshot z = aggregate_stats();
  z.for_each_counter(
      [&](const char* name, std::uint64_t v, const char*) {
        EXPECT_EQ(v, 0u) << "reset_stats missed " << name;
      });
  EXPECT_EQ(z.aborts_total(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  using obs::LatencyHist;
  // Bucket 0 holds [0, 2); bucket b >= 1 holds [2^b, 2^(b+1)).
  EXPECT_EQ(LatencyHist::bucket_of(0), 0);
  EXPECT_EQ(LatencyHist::bucket_of(1), 0);
  EXPECT_EQ(LatencyHist::bucket_of(2), 1);
  EXPECT_EQ(LatencyHist::bucket_of(3), 1);
  EXPECT_EQ(LatencyHist::bucket_of(4), 2);
  EXPECT_EQ(LatencyHist::bucket_of(7), 2);
  EXPECT_EQ(LatencyHist::bucket_of(8), 3);
  EXPECT_EQ(LatencyHist::bucket_of((1ull << 31) - 1), 30);
  EXPECT_EQ(LatencyHist::bucket_of(1ull << 31), 31);
  EXPECT_EQ(LatencyHist::bucket_of(~0ull), 31);  // clamped top bucket

  EXPECT_EQ(LatencyHist::bucket_floor(0), 0u);
  EXPECT_EQ(LatencyHist::bucket_floor(1), 2u);
  EXPECT_EQ(LatencyHist::bucket_floor(5), 32u);
  EXPECT_EQ(LatencyHist::bucket_floor(31), 1ull << 31);

  LatencyHist h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1000);
  h.add(~0ull);
  EXPECT_EQ(h.buckets[0].load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(h.buckets[1].load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(h.buckets[9].load(std::memory_order_relaxed), 1u);  // 512..1023
  EXPECT_EQ(h.buckets[31].load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(h.total(), 6u);
}

// ---------------------------------------------------------------------------
// Site registry
// ---------------------------------------------------------------------------

TEST(ObsSite, RegistryIdentityAndInfo) {
  std::uint16_t first = 0;
  for (int i = 0; i < 3; ++i) {
    const obs::TxSite& s = TLE_TX_SITE("obs/registry_identity");
    if (i == 0) first = s.id;
    EXPECT_EQ(s.id, first) << "same lexical site must register once";
  }
  ASSERT_NE(first, 0) << "named sites never get the reserved id 0";
  const obs::SiteInfo info = obs::site_info(first);
  EXPECT_STREQ(info.name, "obs/registry_identity");
  EXPECT_NE(info.file, nullptr);
  EXPECT_GT(info.line, 0);
  EXPECT_GE(obs::site_count(), 2);
  EXPECT_STREQ(obs::site_info(0).name, "(unnamed)");
}

TEST(ObsSite, OutOfRangeSiteIdsClampToSlotZero) {
  const int slot = my_slot_id();
  EXPECT_EQ(&obs::site_counters(slot, obs::kMaxSites),
            &obs::site_counters(slot, 0));
  EXPECT_EQ(&obs::site_counters(slot, 0xFFFF), &obs::site_counters(slot, 0));
}

// ---------------------------------------------------------------------------
// Per-site abort attribution — one test per AbortCause
// ---------------------------------------------------------------------------

TEST(ObsProfile, AttributesUserExplicitRestart) {
  ModeGuard g(ExecMode::StmCondVar);
  ProfileGuard pg;
  tm_var<long> v(0);
  int execs = 0;
  atomic_do(TLE_TX_SITE("obs/user_explicit"), [&](TxContext& tx) {
    tx.write(v, tx.read(v) + 1);
    if (execs++ == 0) tx.restart();
  });
  const obs::SiteProfile p = profile_of("obs/user_explicit");
  EXPECT_EQ(p.attempts, 2u);
  EXPECT_EQ(p.commits, 1u);
  EXPECT_EQ(p.aborts[static_cast<int>(AbortCause::UserExplicit)], 1u);
  EXPECT_EQ(p.aborts_total(), 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
}

TEST(ObsProfile, AttributesUnsafeAndSerialRerun) {
  ModeGuard g(ExecMode::StmCondVar);
  ProfileGuard pg;
  int ran = 0;
  atomic_do(TLE_TX_SITE("obs/unsafe"), [&](TxContext&) {
    // Nested irrevocable request inside a speculative txn: aborts with
    // Unsafe and re-runs the whole section serially.
    synchronized_do([&](TxContext&) { ++ran; });
  });
  EXPECT_EQ(ran, 1);
  const obs::SiteProfile p = profile_of("obs/unsafe");
  EXPECT_EQ(p.attempts, 1u);
  EXPECT_EQ(p.commits, 0u);
  EXPECT_EQ(p.aborts[static_cast<int>(AbortCause::Unsafe)], 1u);
  EXPECT_EQ(p.serial_fallbacks, 1u);
  EXPECT_EQ(p.serial_commits, 1u);
}

TEST(ObsProfile, AttributesHtmCapacityOverflow) {
  ModeGuard g(ExecMode::Htm);
  config().htm_write_sets = 1;  // capacity model: exactly one 64B line
  config().htm_write_ways = 1;
  ProfileGuard pg;
  // Two stores >= 64 bytes apart always hit two distinct cache lines.
  static tm_var<long> vars[16];
  atomic_do(TLE_TX_SITE("obs/htm_capacity"), [&](TxContext& tx) {
    tx.write(vars[0], 1L);
    tx.write(vars[8], 2L);
  });
  const obs::SiteProfile p = profile_of("obs/htm_capacity");
  // The governor knows a capacity overflow can never succeed on retry: one
  // speculative attempt, straight to serial, no retry counted.
  EXPECT_EQ(p.attempts, 1u);
  EXPECT_EQ(p.aborts[static_cast<int>(AbortCause::Capacity)], 1u);
  EXPECT_EQ(p.htm_retries, 0u);
  EXPECT_EQ(p.serial_fallbacks, 1u);
  EXPECT_EQ(p.serial_commits, 1u);
  EXPECT_EQ(vars[0].unsafe_get(), 1);
  EXPECT_EQ(vars[8].unsafe_get(), 2);
}

TEST(ObsProfile, AttributesHtmSpuriousAborts) {
  ModeGuard g(ExecMode::Htm);
  config().htm_spurious_abort_rate = 1.0;  // every hardware attempt dies
  ProfileGuard pg;
  tm_var<long> v(0);
  atomic_do(TLE_TX_SITE("obs/htm_spurious"), [&](TxContext& tx) {
    tx.write(v, tx.read(v) + 1);
  });
  const obs::SiteProfile p = profile_of("obs/htm_spurious");
  EXPECT_GE(p.aborts[static_cast<int>(AbortCause::Spurious)], 1u);
  EXPECT_EQ(p.serial_fallbacks, 1u);
  EXPECT_EQ(p.serial_commits, 1u);
  EXPECT_EQ(v.unsafe_get(), 1);
}

TEST(ObsProfile, AttributesValidationFailure) {
  // NoQ mode + no_quiesce: the peer's commit must not quiesce-wait on the
  // transaction we deliberately hold open.
  ModeGuard g(ExecMode::StmCondVarNoQ);
  ProfileGuard pg;
  tm_var<long> v1(0), v2(0);
  std::atomic<int> stage{0};
  std::atomic<int> execs{0};

  std::thread peer([&] {
    while (stage.load(std::memory_order_acquire) < 1)
      std::this_thread::yield();
    atomic_do(TLE_TX_SITE("obs/validation_peer"), [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(v1, 1L);
      tx.write(v2, 1L);
    });
    stage.store(2, std::memory_order_release);
  });

  long a = 0, b = 0;
  atomic_do(TLE_TX_SITE("obs/validation"), [&](TxContext& tx) {
    tx.no_quiesce();
    const int e = execs.fetch_add(1, std::memory_order_relaxed);
    a = tx.read(v1);
    if (e == 0) {
      // First execution: logged v1, now let the peer commit new versions
      // of both words. The subsequent read of v2 forces a snapshot extend
      // that re-validates v1 — and fails.
      stage.store(1, std::memory_order_release);
      while (stage.load(std::memory_order_acquire) < 2)
        std::this_thread::yield();
    }
    b = tx.read(v2);
  });
  peer.join();

  EXPECT_EQ(a, 1);  // the retry saw the peer's committed state
  EXPECT_EQ(b, 1);
  const obs::SiteProfile p = profile_of("obs/validation");
  EXPECT_GE(p.aborts[static_cast<int>(AbortCause::Validation)], 1u);
  EXPECT_EQ(p.commits, 1u);
  EXPECT_EQ(profile_of("obs/validation_peer").commits, 1u);
}

TEST(ObsProfile, AttributesOrecConflict) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  config().stm_max_retries = 1000;  // the peer must outlast our hold
  ProfileGuard pg;
  const obs::TxSite& peer_site = TLE_TX_SITE("obs/conflict");
  tm_var<long> w(0);
  std::atomic<bool> held{false};
  std::atomic<int> execs{0};

  std::thread peer([&] {
    while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
    atomic_do(peer_site, [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(w, 2L);  // the holder owns w's orec: Conflict abort
    });
  });

  atomic_do(TLE_TX_SITE("obs/conflict_holder"), [&](TxContext& tx) {
    tx.no_quiesce();
    const int e = execs.fetch_add(1, std::memory_order_relaxed);
    tx.write(w, 1L);  // ml_wt write-through: acquires the orec here
    if (e == 0) {
      held.store(true, std::memory_order_release);
      // Hold the orec until the peer has demonstrably hit it.
      while (live_site_aborts(peer_site.id, AbortCause::Conflict) == 0)
        std::this_thread::yield();
    }
  });
  peer.join();

  EXPECT_EQ(w.unsafe_get(), 2);  // the peer's write landed last
  const obs::SiteProfile p = profile_of("obs/conflict");
  EXPECT_GE(p.aborts[static_cast<int>(AbortCause::Conflict)], 1u);
  EXPECT_GE(p.attempts, 2u);
}

TEST(ObsProfile, AttributesSerialPendingBackout) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  ProfileGuard pg;
  tm_var<long> v(0);
  std::atomic<int> stage{0};
  std::atomic<int> execs{0};

  std::thread peer([&] {
    while (stage.load(std::memory_order_acquire) < 1)
      std::this_thread::yield();
    synchronized_do(TLE_TX_SITE("obs/serial_section"), [](TxContext&) {});
    stage.store(2, std::memory_order_release);
  });

  long acc = 0;
  atomic_do(TLE_TX_SITE("obs/serial_pending"), [&](TxContext& tx) {
    tx.no_quiesce();
    const int e = execs.fetch_add(1, std::memory_order_relaxed);
    if (e == 0) {
      stage.store(1, std::memory_order_release);
      // Keep reading while the peer requests the serial token; the next
      // instrumented read observes the pending writer and backs out.
      // Bounded so a missed abort fails assertions instead of hanging.
      for (long i = 0;
           i < 2000000000L && stage.load(std::memory_order_acquire) < 2; ++i)
        acc += tx.read(v);
    } else {
      acc = tx.read(v);
    }
  });
  peer.join();
  volatile long sink = acc;
  (void)sink;

  const obs::SiteProfile p = profile_of("obs/serial_pending");
  EXPECT_GE(p.aborts[static_cast<int>(AbortCause::SerialPending)], 1u);
  EXPECT_EQ(p.commits, 1u);
  EXPECT_EQ(profile_of("obs/serial_section").serial_commits, 1u);
}

// ---------------------------------------------------------------------------
// Counter conservation: count() bumps the thread row and the site row
// together, so every per-site sum equals its thread total
// ---------------------------------------------------------------------------

/// Yield until `done()` holds, for at most 10 s (a broken rendezvous then
/// fails the assertions that follow instead of hanging the suite).
template <typename P>
void await(P&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

/// Run `during` while a peer thread holds a transaction at `site` open in
/// the current mode.
template <typename F>
void with_peer_in_flight(const obs::TxSite& site, F&& during) {
  std::atomic<bool> open{false};
  std::atomic<bool> release{false};
  std::thread peer([&] {
    atomic_do(site, [&](TxContext&) {
      open.store(true, std::memory_order_release);
      await([&] { return release.load(std::memory_order_acquire); });
    });
  });
  await([&] { return open.load(std::memory_order_acquire); });
  during();
  release.store(true, std::memory_order_release);
  peer.join();
}

TEST(ObsConservation, SiteRowsSumToThreadTotalsAndResetToZero) {
  ModeGuard g(ExecMode::Htm);
  ProfileGuard pg;
  reset_stats();
  tm_var<long> v(0);
  auto bump = [&](TxContext& tx) { tx.write(v, tx.read(v) + 1); };

  // An HTM begin against a held serial lock: the attempt has started when
  // it aborts SerialPending, before it ever registers as a reader.
  std::atomic<bool> holding{false};
  std::thread writer([&] {
    synchronized_do(TLE_TX_SITE("obs/conserve_writer"), [&](TxContext&) {
      holding.store(true, std::memory_order_release);
      await([] {
        return aggregate_stats()
                   .aborts[static_cast<int>(AbortCause::SerialPending)] > 0;
      });
    });
  });
  await([&] { return holding.load(std::memory_order_acquire); });
  atomic_do(TLE_TX_SITE("obs/conserve_pending"), bump);
  writer.join();

  // A privatizing free while an HTM reader is in flight goes to limbo.
  with_peer_in_flight(TLE_TX_SITE("obs/conserve_htm_reader"),
                      [] { tm_private_free(::operator new(16)); });

  // An unquiesced STM commit with a peer in flight arms an audit hazard.
  set_exec_mode(ExecMode::StmCondVar);
  config().quiesce = QuiescePolicy::Never;
  audit::enable(true);
  with_peer_in_flight(TLE_TX_SITE("obs/conserve_stm_reader"), [&] {
    atomic_do(TLE_TX_SITE("obs/conserve_unquiesced"), bump);
  });
  audit::enable(false);
  audit::reset();

  const StatsSnapshot snap = aggregate_stats();
  EXPECT_GT(snap.aborts[static_cast<int>(AbortCause::SerialPending)], 0u);
  EXPECT_GT(snap.priv_limbo_routed, 0u);
  EXPECT_GT(snap.audit_hazard_arms, 0u);

  obs::SiteTotals sum;
  for (const obs::SiteProfile& p : obs::collect_site_profiles()) {
    EXPECT_EQ(p.attempts, p.commits + p.aborts_total())
        << "site " << p.info.name;
#define TLE_SUM_SITE(name, site, ...) sum.site += p.site;
    TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SUM_SITE)
#undef TLE_SUM_SITE
    for (int a = 0; a < kAbortCauseCount; ++a) sum.aborts[a] += p.aborts[a];
  }
#define TLE_EXPECT_CONSERVED(name, site, ...) \
  EXPECT_EQ(sum.site, snap.name) << "site sum of " #site " vs " #name;
  TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_EXPECT_CONSERVED)
#undef TLE_EXPECT_CONSERVED
  for (int a = 0; a < kAbortCauseCount; ++a)
    EXPECT_EQ(sum.aborts[a], snap.aborts[a])
        << to_string(static_cast<AbortCause>(a));

  // Give every counter of one row a nonzero value; the reset zeroes them.
  obs::SiteCounters& row = obs::site_counters(
      my_slot_id(), TLE_TX_SITE("obs/conserve_reset").id);
  std::uint64_t k = 1;
#define TLE_STORE_SITE(name, site, ...) \
  row.site.store(k++, std::memory_order_relaxed);
  TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_STORE_SITE)
#undef TLE_STORE_SITE
  for (auto& a : row.aborts) a.store(k++, std::memory_order_relaxed);
  row.attempt_ns.add(k);
  row.quiesce_ns.add(k);
  obs::reset_site_profiles();
  for (int s = 0; s < kMaxThreads; ++s) {
    const obs::SiteCounters* t = obs::peek_site_table(s);
    for (int id = 0; t && id < obs::kMaxSites; ++id) {
#define TLE_EXPECT_ZERO(name, site, ...)                         \
  EXPECT_EQ(t[id].site.load(std::memory_order_relaxed), 0u)      \
      << #site " survived reset_site_profiles (slot " << s << ", site " \
      << id << ")";
      TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_EXPECT_ZERO)
#undef TLE_EXPECT_ZERO
      for (const auto& a : t[id].aborts)
        EXPECT_EQ(a.load(std::memory_order_relaxed), 0u);
      EXPECT_EQ(t[id].attempt_ns.total(), 0u);
      EXPECT_EQ(t[id].quiesce_ns.total(), 0u);
    }
  }
}

// One writer per counter: a counter's only writer is its slot's owner, so
// count() adds with a relaxed load and store instead of a locked RMW. Three
// committers run a fixed number of transactions at one named site while a
// fourth thread polls both aggregations: every poll must read monotone
// totals, and at join the thread totals and the site row must be exact (a
// lost add shows as a shortfall; under TSan a racy add shows as a report).
TEST(ObsConservation, OwnerCountersStayExactUnderConcurrentPolling) {
  ModeGuard g(ExecMode::Htm);
  ProfileGuard pg;
  reset_stats();
  constexpr int kCommitters = 3;
  constexpr std::uint64_t kTxns = 20000;
  constexpr std::uint64_t kTotal = kCommitters * kTxns;
  const obs::TxSite& site = TLE_TX_SITE("obs/owner_exact");

  // One variable per committer, each on its own commit stripe, so no
  // attempt can abort: the expected counts are exact, not bounds.
  constexpr int kPool = 4096;
  auto pool = std::make_unique<tm_var<long>[]>(kPool);
  tm_var<long>* vars[kCommitters] = {};
  int found = 0;
  for (int i = 0; i < kPool && found < kCommitters; ++i) {
    bool fresh = true;
    for (int k = 0; k < found; ++k)
      fresh &= stripe_of(pool[i]) != stripe_of(*vars[k]);
    if (fresh) vars[found++] = &pool[i];
  }
  ASSERT_EQ(found, kCommitters) << "could not place vars on distinct stripes";

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::uint64_t last_starts = 0, last_site_commits = 0;
  bool monotone = true;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const StatsSnapshot s = aggregate_stats();
      const obs::SiteProfile p = profile_of("obs/owner_exact");
      monotone &= s.txn_starts >= last_starts && s.txn_starts <= kTotal &&
                  p.commits >= last_site_commits && p.commits <= kTotal;
      last_starts = s.txn_starts;
      last_site_commits = p.commits;
      ++polls;
    }
  });
  run_threads(kCommitters, [&](int t) {
    for (std::uint64_t i = 0; i < kTxns; ++i)
      atomic_do(site, [&](TxContext& tx) {
        tx.write(*vars[t], tx.read(*vars[t]) + 1);
      });
  });
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(polls, 0u);
  EXPECT_TRUE(monotone) << "a poll read a total that went back or overshot";
  const StatsSnapshot s = aggregate_stats();
  EXPECT_EQ(s.txn_starts, kTotal);
  EXPECT_EQ(s.commits, kTotal);
  EXPECT_EQ(s.aborts_total(), 0u);
  const obs::SiteProfile p = profile_of("obs/owner_exact");
  EXPECT_EQ(p.attempts, kTotal);
  EXPECT_EQ(p.commits, kTotal);
  EXPECT_EQ(p.aborts_total(), 0u);
  std::uint64_t hist = 0;
  for (std::uint64_t b : p.attempt_hist) hist += b;
  EXPECT_EQ(hist, kTotal) << "attempt histogram lost samples";
  for (tm_var<long>* v : vars)
    EXPECT_EQ(v->unsafe_get(), static_cast<long>(kTxns));
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(ObsTrace, FieldRoundTrip) {
  TraceGuard tg;
  trace::emit(trace::Event::Abort, AbortCause::Capacity, /*site=*/7,
              /*retry=*/3, /*rset=*/11, /*wset=*/5, /*dur_ns=*/1234);
  const auto recs = trace::snapshot();
  ASSERT_EQ(recs.size(), 1u);
  const trace::Record& r = recs[0];
  EXPECT_EQ(r.event, trace::Event::Abort);
  EXPECT_EQ(r.cause, AbortCause::Capacity);
  EXPECT_EQ(r.site, 7);
  EXPECT_EQ(r.retry, 3);
  EXPECT_EQ(r.rset, 11u);
  EXPECT_EQ(r.wset, 5u);
  EXPECT_EQ(r.dur_ns, 1234u);
  EXPECT_EQ(r.slot, my_slot_id());
  EXPECT_GT(r.ts_ns, 0u);
}

TEST(ObsTrace, RingWrapsKeepingNewestWithNewFields) {
  TraceGuard tg;
  const std::size_t total = trace::kRingSize + 100;
  for (std::size_t i = 0; i < total; ++i)
    trace::emit(trace::Event::Commit, AbortCause::None, /*site=*/1,
                static_cast<std::uint16_t>(i & 0xFFFF),
                static_cast<std::uint32_t>(i), 0, i);
  const auto recs = trace::snapshot();
  ASSERT_EQ(recs.size(), trace::kRingSize);
  // Oldest kRingSize records were lapped; the survivors are the newest.
  std::uint64_t min_dur = ~0ull;
  for (const trace::Record& r : recs) {
    EXPECT_EQ(r.event, trace::Event::Commit);
    EXPECT_EQ(r.site, 1);
    min_dur = std::min(min_dur, r.dur_ns);
  }
  EXPECT_EQ(min_dur, 100u);
}

TEST(ObsTrace, ResetIsSafeAndEmptiesSnapshot) {
  TraceGuard tg;
  for (int i = 0; i < 64; ++i) trace::emit(trace::Event::Begin);
  EXPECT_FALSE(trace::snapshot().empty());
  trace::reset();
  EXPECT_TRUE(trace::snapshot().empty());
  trace::emit(trace::Event::Quiesce);
  EXPECT_EQ(trace::snapshot().size(), 1u);
}

TEST(ObsTrace, ConcurrentEmitSnapshotResetStress) {
  TraceGuard tg;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 60000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    int rounds = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto recs = trace::snapshot();
      for (const trace::Record& r : recs) {
        // Decoded fields must always be in-range: a torn cell would show
        // up here (and as a TSan report under the sanitizer preset).
        ASSERT_LE(static_cast<int>(r.event),
                  static_cast<int>(trace::Event::Quiesce));
        ASSERT_LT(static_cast<int>(r.cause), kAbortCauseCount);
        ASSERT_LT(r.slot, kMaxThreads);
        ASSERT_EQ(r.site, 2);
        ASSERT_EQ(r.rset, r.wset + 1);
      }
      if (++rounds % 16 == 0) trace::reset();
    }
  });

  run_threads(kWriters, [&](int t) {
    for (int i = 0; i < kPerWriter; ++i)
      trace::emit(static_cast<trace::Event>(i % 6),
                  static_cast<AbortCause>(i % kAbortCauseCount), /*site=*/2,
                  static_cast<std::uint16_t>(t),
                  static_cast<std::uint32_t>(i) + 1,
                  static_cast<std::uint32_t>(i),
                  static_cast<std::uint64_t>(i));
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_LE(trace::snapshot().size(), trace::kRingSize * kWriters);
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST(ObsExport, JsonTableAndChromeTraceSmoke) {
  ModeGuard g(ExecMode::StmCondVar);
  ProfileGuard pg;
  TraceGuard tg;
  reset_stats();
  tm_var<long> v(0);
  for (int i = 0; i < 10; ++i)
    atomic_do(TLE_TX_SITE("obs/export_smoke"), [&](TxContext& tx) {
      tx.write(v, tx.read(v) + 1);
    });
  synchronized_do(TLE_TX_SITE("obs/export_serial"), [](TxContext&) {});

  const std::string json = obs::obs_json();
  EXPECT_NE(json.find("\"schema\":\"tle-obs/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"obs/export_smoke\""), std::string::npos);
  // Schema-completeness: every X-macro counter appears by name.
  StatsSnapshot().for_each_counter(
      [&](const char* name, std::uint64_t, const char*) {
        EXPECT_NE(json.find("\"" + std::string(name) + "\""),
                  std::string::npos)
            << "tle-obs/v1 stats missing " << name;
      });
  for (int a = 1; a < kAbortCauseCount; ++a)
    EXPECT_NE(json.find("\"" + std::string(to_string(
                            static_cast<AbortCause>(a))) + "\""),
              std::string::npos);

  const std::string table =
      obs::site_table(obs::collect_site_profiles());
  EXPECT_NE(table.find("obs/export_smoke"), std::string::npos);

  const std::string chrome = obs::chrome_trace_json(trace::snapshot());
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("obs/export_smoke"), std::string::npos);
  EXPECT_EQ(profile_of("obs/export_smoke").commits, 10u);
}

}  // namespace
}  // namespace tle
