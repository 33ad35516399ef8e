// Ablation A6 — commit-sequence striping scalability (PR-6 tentpole).
//
// The pre-striping runtime serialized every HTM commit through one global
// NOrec-style sequence word: disjoint writers that never touch the same
// data still collided on the commit CAS, and every commit forced every
// concurrent reader to revalidate its whole read log. The striped commit
// sequence (htm_seq_stripes cache-line-padded seqlocks, keyed by address)
// removes both costs for stripe-disjoint footprints.
//
// Two kernels, A/B'd over htm_seq_stripes in the SAME binary:
//
//  1. disjoint — each worker owns a private block of tm_vars, selected so
//     the whole block maps to one stripe (threads are spread across
//     stripes round-robin via stripe_of()). Under stripes=1 every commit
//     still contends on the lone sequence word; under the striped table
//     commits are fully independent. This is the headline scaling cell.
//
//  2. overlap — all workers hammer the same few hot vars: true data
//     conflicts, so striping cannot help (and must not hurt). Reported as
//     the control.
//
// Metric note: the headline rate is ELIDED commits/s (the `commits`
// counter — speculative commits only; serial fallbacks land in
// `serial_commits`). This harness's simulated HTM shares one machine, so
// on few-core containers the stripes=1 penalty shows up as StripeBusy
// aborts and false revalidations rather than lost parallelism; the >= 3x
// acceptance ratio below is only enforced by the full (non-smoke) run on
// real multicore, mirroring the abl_htm_retry precedent.
//
// Emits BENCH_commit_scale.json (schema "tle-commit-scale/v1", ingested by
// scripts/summarize_bench.py):
//
//   {
//     "schema": "tle-commit-scale/v1",
//     "secs_per_cell": <double>,
//     "cells": [                        // workload x stripes x threads
//       { "workload": "disjoint|overlap", "stripes": <int>,
//         "threads": <int>, "txns": <uint>,
//         "elided_commits_per_sec": <double>,
//         "total_txns_per_sec": <double>,
//         "stripe_bumps": <uint>, "stripe_false_revalidations": <uint>,
//         "aborts_validation": <uint>, "aborts_stripe_busy": <uint>,
//         "htm_retries": <uint>, "serial_fallbacks": <uint>,
//         "serial_pct": <double> }, ... ],
//     "acceptance": {                   // striped vs single at 8T disjoint
//       "threads": <int>, "workload": "disjoint",
//       "striped_commits_per_sec": <double>,
//       "single_commits_per_sec": <double>,
//       "commits_ratio": <double> }     // >= 3.0 expected (full run)
//   }
//
// `--smoke` runs three tiny cells plus accounting self-checks and is wired
// into the tier-1 ctest suite.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "util/barrier.hpp"
#include "util/env.hpp"
#include "util/timing.hpp"

namespace {

using namespace tle;
using namespace tle::bench;

std::atomic<std::uint64_t> g_check_failures{0};

void check(bool ok, const char* what) {
  if (!ok) {
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "abl_commit_scale: CHECK FAILED: %s\n", what);
  }
}

constexpr std::size_t kVarsPerThread = 4;  // one worker's transaction set
constexpr std::size_t kHotVars = 4;  // shared footprint of the overlap kernel
constexpr std::size_t kMaxThreads = 16;

struct ScaleResult {
  bool disjoint = true;
  unsigned stripes = 0;
  int threads = 0;
  double secs = 0;
  std::uint64_t txns = 0;  // completed worker operations
  StatsSnapshot stats;

  /// Speculative (lock-elided) commits/s — what stripe contention caps.
  double elided_commits_per_sec() const {
    return secs > 0 ? static_cast<double>(stats.commits) / secs : 0;
  }
  double total_txns_per_sec() const {
    return secs > 0 ? static_cast<double>(txns) / secs : 0;
  }
};

ScaleResult run_scale_cell(bool disjoint, unsigned stripes, int threads,
                           double secs) {
  set_exec_mode(ExecMode::Htm);
  const unsigned saved_stripes = config().htm_seq_stripes;
  config().htm_seq_stripes = stripes;
  reset_stats();

  // Pool large enough that every thread can claim kVarsPerThread vars that
  // all map to its assigned stripe (threads spread round-robin): ~256
  // 512-byte stripe blocks, so each of up to 16 stripe classes is hit by
  // ~16 blocks. With stripes=1 everything maps to stripe 0 and claiming
  // degenerates to successive private blocks — address-disjoint either
  // way, so the A/B compares pure commit-sequence contention, never data
  // conflicts.
  std::vector<tm_var<long>> pool(disjoint ? kMaxThreads * 256 * kVarsPerThread
                                          : kHotVars);
  std::vector<std::vector<tm_var<long>*>> mine(
      static_cast<std::size_t>(threads));
  std::vector<bool> claimed(pool.size(), false);
  for (int t = 0; t < threads; ++t) {
    if (!disjoint) {
      for (auto& v : pool) mine[static_cast<std::size_t>(t)].push_back(&v);
      continue;
    }
    const unsigned want = static_cast<unsigned>(t) % stripes;
    for (std::size_t i = 0;
         i < pool.size() &&
         mine[static_cast<std::size_t>(t)].size() < kVarsPerThread;
         ++i) {
      if (!claimed[i] && stripe_of(pool[i]) == want) {
        claimed[i] = true;
        mine[static_cast<std::size_t>(t)].push_back(&pool[i]);
      }
    }
    check(mine[static_cast<std::size_t>(t)].size() == kVarsPerThread,
          "pool yields a stripe-homogeneous block per thread");
  }

  elidable_mutex lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  SpinBarrier gate(static_cast<std::size_t>(threads) + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& vars = mine[static_cast<std::size_t>(t)];
      gate.arrive_and_wait();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Two read-modify-writes per transaction: small commit-bound
        // bodies, the shape where commit-sequence cost dominates.
        const std::size_t a = local % vars.size();
        const std::size_t b = (local + 1) % vars.size();
        const auto body = [&](TxContext& ctx) {
          ctx.fetch_add(*vars[a], 1L);
          ctx.fetch_add(*vars[b], 1L);
        };
        if (disjoint)
          critical(lock, TLE_TX_SITE("commit_scale/disjoint"), body);
        else
          critical(lock, TLE_TX_SITE("commit_scale/overlap"), body);
        ++local;
      }
      ops.fetch_add(local);
    });
  }
  Stopwatch sw;
  gate.arrive_and_wait();
  while (sw.seconds() < secs) std::this_thread::yield();
  stop.store(true);
  const double measured = sw.seconds();
  for (auto& w : workers) w.join();

  ScaleResult r;
  r.disjoint = disjoint;
  r.stripes = stripes;
  r.threads = threads;
  r.secs = measured;
  r.txns = ops.load();
  r.stats = aggregate_stats();
  check(r.txns > 0, "scale cell made progress");

  // Every committed transaction added exactly 2 across the pool.
  long long sum = 0;
  for (auto& v : pool)
    sum += static_cast<long>(v.raw().load(std::memory_order_relaxed));
  check(static_cast<std::uint64_t>(sum) == 2 * r.txns,
        "pool sum equals 2 x completed txns");

  // Disjoint write sets are stripe-homogeneous: one stripe bump per
  // published (elided, writing) commit — the accounting contract.
  if (disjoint)
    check(r.stats.stripe_bumps == r.stats.commits,
          "one stripe bump per elided disjoint commit");

  config().htm_seq_stripes = saved_stripes;
  set_exec_mode(ExecMode::Lock);
  return r;
}

void emit_json(const char* path, const std::vector<ScaleResult>& cells,
               double secs, int accept_threads) {
  JsonWriter j;
  j.begin_obj();
  j.kv("schema", "tle-commit-scale/v1");
  j.kv("secs_per_cell", secs);

  const ScaleResult* striped = nullptr;
  const ScaleResult* single = nullptr;
  j.key("cells");
  j.begin_arr();
  for (const ScaleResult& c : cells) {
    j.begin_obj();
    j.kv("workload", c.disjoint ? "disjoint" : "overlap");
    j.kv("stripes", static_cast<std::uint64_t>(c.stripes));
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("txns", c.txns);
    j.kv("elided_commits_per_sec", c.elided_commits_per_sec());
    j.kv("total_txns_per_sec", c.total_txns_per_sec());
    j.kv("stripe_bumps", c.stats.stripe_bumps);
    j.kv("stripe_false_revalidations", c.stats.stripe_false_revalidations);
    j.kv("aborts_validation",
         c.stats.aborts[static_cast<int>(AbortCause::Validation)]);
    j.kv("aborts_stripe_busy",
         c.stats.aborts[static_cast<int>(AbortCause::StripeBusy)]);
    j.kv("htm_retries", c.stats.htm_retries);
    j.kv("serial_fallbacks", c.stats.serial_fallbacks);
    j.kv("serial_pct", 100.0 * c.stats.serial_fraction());
    j.end_obj();
    if (c.disjoint && c.threads == accept_threads)
      (c.stripes > 1 ? striped : single) = &c;
  }
  j.end_arr();

  j.key("acceptance");
  j.begin_obj();
  j.kv("threads", static_cast<std::uint64_t>(accept_threads));
  j.kv("workload", "disjoint");
  if (striped && single) {
    const double ratio = single->elided_commits_per_sec() > 0
                             ? striped->elided_commits_per_sec() /
                                   single->elided_commits_per_sec()
                             : 0.0;
    j.kv("striped_commits_per_sec", striped->elided_commits_per_sec());
    j.kv("single_commits_per_sec", single->elided_commits_per_sec());
    j.kv("commits_ratio", ratio);
  }
  j.end_obj();
  j.end_obj();

  if (!j.write_file(path)) {
    std::fprintf(stderr, "abl_commit_scale: cannot write %s\n", path);
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_commit_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out = argv[i];
  }
  const double secs = env_double("ABL_COMMIT_SCALE_SECS", smoke ? 0.05 : 1.0);
  const int accept_threads =
      static_cast<int>(env_long("ABL_COMMIT_SCALE_THREADS", 8));
  const unsigned striped = config().htm_seq_stripes;  // default table width

  std::vector<ScaleResult> cells;
  if (smoke) {
    // Three tiny cells: the A/B pair plus the overlap control.
    cells.push_back(run_scale_cell(true, 1, 2, secs));
    cells.push_back(run_scale_cell(true, striped, 2, secs));
    cells.push_back(run_scale_cell(false, striped, 2, secs));
  } else {
    for (bool disjoint : {true, false})
      for (unsigned stripes : {1u, striped})
        for (int t : {1, 2, 4, 8, 16})
          cells.push_back(run_scale_cell(disjoint, stripes, t, secs));
  }

  std::printf("%-9s %8s %8s %14s %14s %12s %10s %12s %8s\n", "workload",
              "stripes", "threads", "elided/s", "total/s", "bumps",
              "falserev", "stripebusy", "serial%");
  for (const ScaleResult& c : cells)
    std::printf(
        "%-9s %8u %8d %14.0f %14.0f %12llu %10llu %12llu %7.2f%%\n",
        c.disjoint ? "disjoint" : "overlap", c.stripes, c.threads,
        c.elided_commits_per_sec(), c.total_txns_per_sec(),
        static_cast<unsigned long long>(c.stats.stripe_bumps),
        static_cast<unsigned long long>(c.stats.stripe_false_revalidations),
        static_cast<unsigned long long>(
            c.stats.aborts[static_cast<int>(AbortCause::StripeBusy)]),
        100.0 * c.stats.serial_fraction());

  emit_json(out, cells, secs, accept_threads);
  std::printf("wrote %s\n", out);

  if (!smoke) {
    const ScaleResult* on = nullptr;
    const ScaleResult* off = nullptr;
    for (const ScaleResult& c : cells)
      if (c.disjoint && c.threads == accept_threads)
        (c.stripes > 1 ? on : off) = &c;
    if (on && off) {
      const double ratio =
          off->elided_commits_per_sec() > 0
              ? on->elided_commits_per_sec() / off->elided_commits_per_sec()
              : 0.0;
      std::printf("acceptance: disjoint %dT striped/single elided commits "
                  "ratio %.2fx (need >= 3.0)\n",
                  accept_threads, ratio);
      check(ratio >= 3.0,
            "striped table >= 3x single-sequence disjoint commits/s");
    }
  }

  const auto failures = g_check_failures.load();
  if (failures) {
    std::fprintf(stderr, "abl_commit_scale: %llu check failure(s)\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}
