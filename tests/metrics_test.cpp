// Tests for the interval-telemetry pipeline (PR: windowed metrics sampler):
//   * midpoint-rule percentile selection at exact bucket boundaries,
//   * window deltas against hand-driven metrics_tick() calls, and the
//     cumulative total_commits conservation anchor,
//   * the saturating delta rule across a mid-run counter reset,
//   * ring retention: eviction at config().metrics_history, monotone indices,
//   * health-gauge plumbing: in-flight age, limbo backlog, serial hold,
//   * flag discipline: kMetricsBit gating of the txn_begin_ns stamp and the
//     profile-bit independence contract,
//   * a concurrent tick-vs-commit stress (TSan-clean) whose summed window
//     deltas must equal the lifetime total exactly,
//   * the ranked starved_sites array of every tle-metrics/v1 record,
//   * the background sampler's start/stop/restart lifecycle,
//   * deterministic mode: two identical seeded runs produce byte-identical
//     tle-metrics/v1 window records.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "tm/fault/fault.hpp"
#include "tm/obs/export.hpp"
#include "tm/obs/histogram.hpp"
#include "tm/obs/metrics.hpp"
#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "util/timing.hpp"

namespace tle {
namespace {

using testing::ModeGuard;
using testing::run_threads;

/// Enables interval metrics for the scope from zeroed counters and window 0;
/// restores the fully-disabled flag word on exit.
struct MetricsGuard {
  MetricsGuard() {
    reset_stats();
    obs::reset_site_profiles();
    obs::metrics_enable(true);
    obs::metrics_reset();
  }
  ~MetricsGuard() {
    obs::metrics_enable(false);
    obs::metrics_set_deterministic(false);
    obs::profile_enable(false);
  }
};

/// The site's interval record inside `w`, or nullptr when it was inactive.
const obs::SiteWindow* find_site(const obs::MetricsWindow& w,
                                 const char* name) {
  for (const obs::SiteWindow& s : w.sites)
    if (s.name && std::strcmp(s.name, name) == 0) return &s;
  return nullptr;
}

/// Lifetime completed transactions of the site named `name`: speculative
/// plus serial commits (one that exhausts its retries commits serially).
std::uint64_t lifetime_commits(const char* name) {
  for (const obs::SiteProfile& p : obs::collect_site_profiles())
    if (p.info.name && std::strcmp(p.info.name, name) == 0)
      return p.commits + p.serial_commits;
  return 0;
}

// ---------------------------------------------------------------------------
// Midpoint percentile rule
// ---------------------------------------------------------------------------

TEST(MetricsPercentile, BucketMidpoints) {
  using obs::LatencyHist;
  // Bucket 0 holds [0, 2): report 1. Bucket b >= 1 holds [2^b, 2^(b+1)):
  // report the midpoint 2^b + 2^(b-1).
  EXPECT_EQ(LatencyHist::bucket_midpoint(0), 1u);
  EXPECT_EQ(LatencyHist::bucket_midpoint(1), 3u);
  EXPECT_EQ(LatencyHist::bucket_midpoint(2), 6u);
  EXPECT_EQ(LatencyHist::bucket_midpoint(5), 48u);
  EXPECT_EQ(LatencyHist::bucket_midpoint(31), (1ull << 31) + (1ull << 30));
}

TEST(MetricsPercentile, SelectionAtExactBoundaries) {
  std::uint64_t b[obs::LatencyHist::kBuckets] = {};
  EXPECT_EQ(obs::percentile_from_buckets(b, 0.5), 0u) << "empty -> 0";

  // 99 samples in bucket 1, one in bucket 9 (total 100).
  b[1] = 99;
  b[9] = 1;
  // q=0.99 -> target 99; the cumulative count at bucket 1 reaches it exactly.
  EXPECT_EQ(obs::percentile_from_buckets(b, 0.50), 3u);
  EXPECT_EQ(obs::percentile_from_buckets(b, 0.99), 3u);
  // q=0.999 -> target 99.9; only the tail bucket covers it.
  EXPECT_EQ(obs::percentile_from_buckets(b, 0.999), 768u);  // 512 + 256

  // Out-of-range quantiles clamp to the extremes.
  EXPECT_EQ(obs::percentile_from_buckets(b, -1.0), 3u);
  EXPECT_EQ(obs::percentile_from_buckets(b, 2.0), 768u);

  // One-past-exact: cum(1) == 1 < target(1.02) pushes selection up.
  std::uint64_t c[obs::LatencyHist::kBuckets] = {};
  c[0] = 1;
  c[3] = 1;
  EXPECT_EQ(obs::percentile_from_buckets(c, 0.50), 1u);
  EXPECT_EQ(obs::percentile_from_buckets(c, 0.51), 12u);  // 8 + 4
}

TEST(MetricsPercentile, HistogramWrapperSnapshots) {
  obs::LatencyHist h;
  for (int i = 0; i < 10; ++i) h.add(1000);  // bucket 9: [512, 1024)
  h.add(1u << 20);                           // bucket 20
  EXPECT_EQ(obs::percentile(h, 0.50), 768u);
  EXPECT_EQ(obs::percentile(h, 0.999), (1u << 20) + (1u << 19));
}

// ---------------------------------------------------------------------------
// Window deltas
// ---------------------------------------------------------------------------

TEST(MetricsWindows, DeltasMatchHandDrivenTicks) {
  ModeGuard g(ExecMode::StmCondVar);
  MetricsGuard mg;
  tm_var<long> v(0);
  auto bump = [&](int n) {
    for (int i = 0; i < n; ++i)
      atomic_do(TLE_TX_SITE("metrics/delta"), [&](TxContext& tx) {
        tx.write(v, tx.read(v) + 1);
      });
  };

  bump(10);
  const obs::MetricsWindow w0 = obs::metrics_tick();
  EXPECT_EQ(w0.index, 0u);
  EXPECT_FALSE(w0.final_flush);
  EXPECT_EQ(w0.commits, 10u);
  EXPECT_EQ(w0.txn_starts, 10u);
  EXPECT_EQ(w0.aborts, 0u);
  EXPECT_GT(w0.t_end_ns, 0u);
  const obs::SiteWindow* s0 = find_site(w0, "metrics/delta");
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->attempts, 10u);
  EXPECT_EQ(s0->commits, 10u);
  EXPECT_EQ(s0->total_commits, 10u);
  EXPECT_GT(s0->p50_ns, 0u) << "non-deterministic windows carry percentiles";

  bump(5);
  const obs::MetricsWindow w1 = obs::metrics_tick();
  EXPECT_EQ(w1.index, 1u);
  EXPECT_EQ(w1.commits, 5u);
  const obs::SiteWindow* s1 = find_site(w1, "metrics/delta");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->commits, 5u);
  EXPECT_EQ(s1->total_commits, 15u)
      << "total_commits is the cumulative conservation anchor";

  // A quiet interval: the site must not be materialized.
  const obs::MetricsWindow w2 = obs::metrics_tick();
  EXPECT_EQ(w2.index, 2u);
  EXPECT_EQ(w2.commits, 0u);
  EXPECT_EQ(find_site(w2, "metrics/delta"), nullptr);

  // Accessors agree with the last tick.
  EXPECT_EQ(obs::metrics_window().index, 2u);
  EXPECT_EQ(obs::metrics_history().size(), 3u);

  // The final-flush variant closes a residual window.
  bump(2);
  const obs::MetricsWindow wf = obs::metrics_tick_final();
  EXPECT_TRUE(wf.final_flush);
  EXPECT_EQ(wf.commits, 2u);
  ASSERT_NE(find_site(wf, "metrics/delta"), nullptr);
  EXPECT_EQ(find_site(wf, "metrics/delta")->total_commits, 17u);
}

TEST(MetricsWindows, SaturatingDeltaSurvivesMidRunReset) {
  ModeGuard g(ExecMode::StmCondVar);
  MetricsGuard mg;
  tm_var<long> v(0);
  auto bump = [&](int n) {
    for (int i = 0; i < n; ++i)
      atomic_do(TLE_TX_SITE("metrics/reset"), [&](TxContext& tx) {
        tx.write(v, tx.read(v) + 1);
      });
  };

  bump(8);
  obs::metrics_tick();  // baseline now sits at 8

  // Counters restart from zero mid-run: the next window must report the
  // post-reset activity, not a huge wrapped difference.
  reset_stats();
  obs::reset_site_profiles();
  bump(3);
  const obs::MetricsWindow w = obs::metrics_tick();
  EXPECT_EQ(w.commits, 3u);
  const obs::SiteWindow* s = find_site(w, "metrics/reset");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->commits, 3u);
  EXPECT_EQ(s->total_commits, 3u);
}

TEST(MetricsWindows, RingEvictsOldestAtConfiguredDepth) {
  ModeGuard g(ExecMode::StmCondVar);  // saves/restores the whole config
  config().metrics_history = 4;
  MetricsGuard mg;
  for (int i = 0; i < 10; ++i) obs::metrics_tick();
  const std::vector<obs::MetricsWindow> h = obs::metrics_history();
  ASSERT_EQ(h.size(), 4u);
  for (std::size_t i = 0; i < h.size(); ++i)
    EXPECT_EQ(h[i].index, 6u + i) << "ring must keep the newest, in order";
  EXPECT_EQ(obs::metrics_window().index, 9u);

  // metrics_reset drops the ring and restarts numbering.
  obs::metrics_reset();
  EXPECT_TRUE(obs::metrics_history().empty());
  EXPECT_EQ(obs::metrics_tick().index, 0u);
}

// ---------------------------------------------------------------------------
// Health gauges
// ---------------------------------------------------------------------------

TEST(MetricsGauges, InflightTxnAgeIsVisible) {
  ModeGuard g(ExecMode::StmCondVarNoQ);
  MetricsGuard mg;
  std::atomic<bool> inside{false}, release{false};

  std::thread peer([&] {
    atomic_do(TLE_TX_SITE("metrics/inflight"), [&](TxContext& tx) {
      tx.no_quiesce();
      inside.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();

  const obs::MetricsWindow w = obs::metrics_tick();
  EXPECT_GE(w.gauges.inflight_txns, 1u);
  EXPECT_GT(w.gauges.oldest_txn_age_ns, 0u)
      << "the held-open peer transaction must age the gauge";

  release.store(true, std::memory_order_release);
  peer.join();
}

TEST(MetricsGauges, LimboBacklogIsVisible) {
  ModeGuard g(ExecMode::Htm);
  MetricsGuard mg;
  // An HTM commit has no ordering quiesce, so a transactional free parks in
  // limbo awaiting a grace period — exactly the backlog the gauge reports.
  void* p = ::operator new(64);
  atomic_do(TLE_TX_SITE("metrics/limbo"), [&](TxContext& tx) { tx.free(p); });

  const obs::MetricsWindow w = obs::metrics_tick();
  EXPECT_GE(w.gauges.limbo_pending, 1u);
  EXPECT_GE(w.limbo_enqueued, 1u);

  // A serial section drains this thread's limbo (the write lock is a full
  // grace period); leave the slot clean for later tests.
  synchronized_do([](TxContext&) {});
  const obs::MetricsWindow w2 = obs::metrics_tick();
  EXPECT_EQ(w2.gauges.limbo_pending, 0u);
  EXPECT_GE(w2.limbo_drained, 1u);
}

TEST(MetricsGauges, SerialLockHoldIsMetered) {
  ModeGuard g(ExecMode::StmCondVar);
  MetricsGuard mg;
  synchronized_do(TLE_TX_SITE("metrics/serial"), [](TxContext&) {
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < 200'000) {
    }  // hold the write lock for a measurable ~0.2 ms
  });
  const obs::MetricsWindow w = obs::metrics_tick();
  EXPECT_EQ(w.serial_commits, 1u);
  EXPECT_GE(w.gauges.serial_hold_ns, 200'000u);
  EXPECT_EQ(w.gauges.serial_held_age_ns, 0u) << "nobody holds it now";
}

// ---------------------------------------------------------------------------
// Flag discipline
// ---------------------------------------------------------------------------

TEST(MetricsFlags, EnableComposesWithProfilerAndGatesStamps) {
  ModeGuard g(ExecMode::StmCondVar);
  obs::metrics_enable(false);
  obs::profile_enable(false);
  EXPECT_EQ(obs::flags() & (obs::kMetricsBit | obs::kProfileBit), 0u);

  // Disabled: the engine must not publish begin timestamps.
  atomic_do([](TxContext&) {
    EXPECT_EQ(my_slot().txn_begin_ns.load(std::memory_order_relaxed), 0u);
  });

  obs::metrics_enable(true);
  EXPECT_TRUE(obs::metrics_enabled());
  EXPECT_TRUE(obs::profiling_enabled())
      << "metrics needs the site counters it diffs";

  atomic_do([](TxContext&) {
    EXPECT_GT(my_slot().txn_begin_ns.load(std::memory_order_relaxed), 0u);
  });
  EXPECT_EQ(my_slot().txn_begin_ns.load(std::memory_order_relaxed), 0u)
      << "commit must clear the in-flight stamp";

  // Disabling metrics leaves an (independently usable) profiler running.
  obs::metrics_enable(false);
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_TRUE(obs::profiling_enabled());
  obs::profile_enable(false);
  EXPECT_EQ(obs::flags() & (obs::kMetricsBit | obs::kProfileBit), 0u);
}

// ---------------------------------------------------------------------------
// JSON shape
// ---------------------------------------------------------------------------

TEST(MetricsJson, RecordShapeFollowsDeterminism) {
  ModeGuard g(ExecMode::StmCondVar);
  MetricsGuard mg;
  tm_var<long> v(0);
  // One lexical site used for both phases (two TLE_TX_SITE expansions with
  // the same name would register two distinct ids).
  const obs::TxSite& site = TLE_TX_SITE("metrics/json");
  atomic_do(site, [&](TxContext& tx) { tx.write(v, tx.read(v) + 1); });

  const std::string live = obs::metrics_json(obs::metrics_tick());
  EXPECT_NE(live.find("\"schema\":\"tle-metrics/v1\""), std::string::npos);
  EXPECT_NE(live.find("\"t_start_ns\""), std::string::npos);
  EXPECT_NE(live.find("\"commit_rate\""), std::string::npos);
  EXPECT_NE(live.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(live.find("\"metrics/json\""), std::string::npos);
  EXPECT_EQ(live.find('\n'), std::string::npos) << "JSONL: one line";

  obs::metrics_set_deterministic(true);
  atomic_do(site, [&](TxContext& tx) { tx.write(v, tx.read(v) + 1); });
  const std::string det = obs::metrics_json(obs::metrics_tick());
  EXPECT_NE(det.find("\"deterministic\":true"), std::string::npos);
  EXPECT_EQ(det.find("\"t_start_ns\""), std::string::npos)
      << "deterministic records carry no wall-clock bytes";
  EXPECT_EQ(det.find("\"commit_rate\""), std::string::npos);
  EXPECT_EQ(det.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(det.find("\"total_commits\":2"), std::string::npos);

  const std::string prom = obs::prometheus_text();
  EXPECT_NE(prom.find("# TYPE tle_commits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("tle_site_commits_total{site=\"metrics/json\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE tle_inflight_txns gauge"), std::string::npos);
}

TEST(MetricsJson, StarvedSitesRankWatchdogVictims) {
  MetricsGuard mg;
  const obs::TxSite& gated = TLE_TX_SITE("metrics/starved_gated");
  const obs::TxSite& victim = TLE_TX_SITE("metrics/starved_victim");
  // Manufacture governor starvation signals at two known sites: gate waits
  // only at one, watchdog escalations at the other.
  obs::site_counters(my_slot_id(), gated.id)
      .storm_gated.fetch_add(5, std::memory_order_relaxed);
  obs::site_counters(my_slot_id(), victim.id)
      .watchdog_escalations.fetch_add(2, std::memory_order_relaxed);
  const std::string json = obs::metrics_json(obs::metrics_tick());
  const std::size_t arr = json.find("\"starved_sites\":[{\"id\":");
  ASSERT_NE(arr, std::string::npos);
  const std::size_t v = json.find("metrics/starved_victim", arr);
  const std::size_t g = json.find("metrics/starved_gated", arr);
  ASSERT_NE(v, std::string::npos);
  ASSERT_NE(g, std::string::npos);
  EXPECT_LT(v, g) << "watchdog victims rank above gate-only sites";
  EXPECT_NE(json.find("\"watchdog_total\":2", arr), std::string::npos);
  EXPECT_NE(json.find("\"gated_total\":5", arr), std::string::npos);
}

// ---------------------------------------------------------------------------
// Background sampler lifecycle
// ---------------------------------------------------------------------------

TEST(MetricsSampler, StartStopIsIdempotentAndRestartable) {
  ModeGuard g(ExecMode::StmCondVar);
  config().metrics_period_ms = 5;
  MetricsGuard mg;
  obs::metrics_start();
  EXPECT_TRUE(obs::metrics_sampler_running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  obs::metrics_stop();
  EXPECT_FALSE(obs::metrics_sampler_running());
  const std::uint64_t windows = obs::metrics_history().size();
  EXPECT_GT(windows, 0u) << "the stop flushes a final window at least";

  // A second stop finds nothing to join and emits no residual window.
  obs::metrics_stop();
  EXPECT_FALSE(obs::metrics_sampler_running());
  EXPECT_EQ(obs::metrics_history().size(), windows);

  obs::metrics_start();
  EXPECT_TRUE(obs::metrics_sampler_running());
  obs::metrics_stop();
  EXPECT_FALSE(obs::metrics_sampler_running());
}

// ---------------------------------------------------------------------------
// Concurrent conservation stress (TSan-clean)
// ---------------------------------------------------------------------------

TEST(MetricsStress, ConcurrentTicksConserveCommitCounts) {
  ModeGuard g(ExecMode::StmCondVar);
  config().metrics_history = 8;  // exercise eviction under load too
  MetricsGuard mg;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  static tm_var<long> v;
  v.unsafe_set(0);
  std::atomic<bool> done{false};
  std::uint64_t ticked_commits = 0;

  std::thread ticker([&] {
    int rounds = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsWindow w = obs::metrics_tick();
      if (const obs::SiteWindow* s = find_site(w, "metrics/stress"))
        ticked_commits += s->commits + s->serial_commits;
      if (++rounds % 8 == 0) {
        obs::metrics_json(w);     // exercise the exporters concurrently
        obs::prometheus_text();
      }
      std::this_thread::yield();
    }
  });

  run_threads(kWriters, [&](int) {
    for (int i = 0; i < kPerWriter; ++i)
      atomic_do(TLE_TX_SITE("metrics/stress"), [&](TxContext& tx) {
        tx.write(v, tx.read(v) + 1);
      });
  });
  done.store(true, std::memory_order_release);
  ticker.join();

  const obs::MetricsWindow wf = obs::metrics_tick_final();
  if (const obs::SiteWindow* s = find_site(wf, "metrics/stress"))
    ticked_commits += s->commits + s->serial_commits;

  const std::uint64_t total =
      static_cast<std::uint64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(v.unsafe_get(), static_cast<long>(total));
  EXPECT_EQ(lifetime_commits("metrics/stress"), total);
  EXPECT_EQ(ticked_commits, total)
      << "window deltas must sum exactly to the lifetime total";
}

// ---------------------------------------------------------------------------
// Deterministic double-run
// ---------------------------------------------------------------------------

TEST(MetricsDeterministic, SameSeedRunsAreByteIdentical) {
  ModeGuard g(ExecMode::StmCondVar);
  // The retry policy's one wall-clock input: a preempted run could hit the
  // watchdog deadline in one pass and not the other.
  config().watchdog_deadline_ns = 0;
  MetricsGuard mg;
  obs::metrics_set_deterministic(true);

  auto one_run = [&] {
    reset_stats();
    obs::reset_site_profiles();
    obs::metrics_reset();
    EXPECT_TRUE(fault::install_spec(
        "conflict@commit=0.05,validation@read=0.02", 42));
    std::vector<std::string> records;
    std::thread worker([&] {
      fault::set_thread_stream(1);
      static tm_var<long> a, b;
      a.unsafe_set(0);
      b.unsafe_set(0);
      for (int phase = 0; phase < 3; ++phase) {
        for (int i = 0; i < 200; ++i)
          atomic_do(TLE_TX_SITE("metrics/det"), [&](TxContext& tx) {
            tx.write(a, tx.read(a) + 1);
            tx.write(b, tx.read(b) - 1);
          });
        records.push_back(obs::metrics_json(obs::metrics_tick()));
      }
    });
    worker.join();
    fault::clear();
    return records;
  };

  std::vector<std::string> first, second;
  {
    SCOPED_TRACE("run 1");
    first = one_run();
  }
  {
    SCOPED_TRACE("run 2");
    second = one_run();
  }
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(first[i], second[i]) << "window " << i;
  // The injected plan really fired (otherwise this test proves nothing).
  EXPECT_NE(first[0].find("\"aborts\":{"), std::string::npos);
}

}  // namespace
}  // namespace tle
