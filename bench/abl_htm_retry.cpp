// Ablation A2 — HTM retry policy and the lemming effect (§VII-A).
//
// The paper's HTM runs fell back to serial after 2 failures and reported
// 13–18% serial execution on PBZip2, concluding that per-transaction retry
// tuning "would offer even better performance". Two experiments here:
//
//  1. Retry-budget sweep: the original contended queue-metadata kernel over
//     retries x threads, reporting throughput and the serial fraction.
//
//  2. Lemming effect A/B: the same queue kernel with one interferer thread
//     periodically entering a serial (synchronized) section. Under a
//     cause-blind policy every serial window burns worker retry budget,
//     workers escalate to serial themselves, and each escalation aborts the
//     other workers — the convoy feeds itself ("one lemming jumps, they all
//     jump"). The contention governor's default table drains serial windows
//     budget-free instead, so speculation resumes when the interferer
//     leaves. The cause-blind arm is a TxnAttrs table sending every cause
//     but Unsafe to Backoff, with the watchdog switched off. The A/B gap (elided commits/s and serial_fallbacks) is the
//     measured value of cause-awareness.
//
// Metric note: the headline rate is ELIDED commits/s — the runtime's
// `commits` counter, which counts only speculative (lock-elided) commits;
// serial executions land in `serial_commits`. On real multicore hardware the
// elision rate is what multiplies into parallel speedup: a convoy that runs
// every transaction under the serial lock caps throughput at one core. This
// harness's simulated HTM shares one machine, so total wall-clock txns/s
// cannot show the parallelism loss — it is reported alongside
// (total_txns_per_sec) to show the governor costs nothing end-to-end, but
// the acceptance ratio is taken on the elision rate the convoy destroys.
//
// Emits BENCH_governor.json (schema "tle-governor/v1", ingested by
// scripts/summarize_bench.py):
//
//   {
//     "schema": "tle-governor/v1",
//     "secs_per_cell": <double>,
//     "sweep": [                         // omitted under --smoke
//       { "retries": <int>, "threads": <int>, "txns": <uint>,
//         "ops_per_sec": <double>, "serial_fallbacks": <uint>,
//         "htm_retries": <uint>, "serial_pct": <double> }, ... ],
//     "lemming": [
//       { "governor": "on|off",          // cause-aware | cause-blind
//         "threads": <int>, "txns": <uint>,
//         "elided_commits_per_sec": <double>,
//         "total_txns_per_sec": <double>,
//         "serial_entries": <uint>,      // interferer serial sections
//         "serial_fallbacks": <uint>,    // worker speculation giving up
//         "convoy_depth": <double>,      // serial_fallbacks / serial_entries
//         "aborts_serial_pending": <uint>,
//         "gov_drain_waits": <uint>, "gov_drain_timeouts": <uint>,
//         "gov_serial_immediate": <uint>,
//         "gov_watchdog_escalations": <uint> }, ... ],
//     "acceptance": {                    // on-vs-off at the widest cell
//       "threads": <int>,
//       "commits_ratio": <double|null>,  // elided-rate ratio, >= 2.0 expected
//       "total_ratio": <double|null>,    // wall-clock txns/s ratio (context)
//       "fallback_drop": <double>,       // >= 0.5 expected
//       "convoy_depth_on": <double>, "convoy_depth_off": <double> }
//   }
//
// A ratio is null when the cause-blind arm's rate is 0: it is undefined, and
// the >= 2x gate then passes on any elided commit of the cause-aware arm.
//
// `--smoke` runs two tiny lemming cells plus self-checks and is wired into
// the tier-1 ctest suite; the full run also executes the sweep and checks
// the acceptance ratios above.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "sync/bounded_queue.hpp"
#include "tm/governor/governor.hpp"
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
    std::fprintf(stderr, "abl_htm_retry: CHECK FAILED: %s\n", what);
  }
}

// ---------------------------------------------------------------------------
// Experiment 1: retry-budget sweep (the original A2 kernel)
// ---------------------------------------------------------------------------

struct SweepResult {
  int retries = 0;
  int threads = 0;
  double secs = 0;
  std::uint64_t ops = 0;
  StatsSnapshot stats;

  double ops_per_sec() const {
    return secs > 0 ? static_cast<double>(ops) / secs : 0;
  }
};

SweepResult run_sweep_cell(int retries, int threads, double secs) {
  set_exec_mode(ExecMode::Htm);
  config().htm_max_retries = retries;
  reset_stats();

  bounded_queue<long> queue(128);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  SpinBarrier gate(static_cast<std::size_t>(threads) + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      gate.arrive_and_wait();
      std::uint64_t local = 0;
      long v = t;
      while (!stop.load(std::memory_order_relaxed)) {
        // Alternate try_push/try_pop: pure queue-metadata transactions,
        // the PBZip2 critical-section shape.
        if (local & 1)
          benchmark::DoNotOptimize(queue.try_pop());
        else
          benchmark::DoNotOptimize(queue.try_push(v++));
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

  SweepResult r;
  r.retries = retries;
  r.threads = threads;
  r.secs = measured;
  r.ops = ops.load();
  r.stats = aggregate_stats();
  check(r.ops > 0, "sweep cell made progress");
  config().htm_max_retries = 2;
  set_exec_mode(ExecMode::Lock);
  return r;
}

// ---------------------------------------------------------------------------
// Experiment 2: the lemming effect, cause-aware vs cause-blind
// ---------------------------------------------------------------------------

struct LemmingResult {
  bool cause_aware = false;
  int threads = 0;
  double secs = 0;
  std::uint64_t txns = 0;           // completed worker operations
  std::uint64_t serial_entries = 0;  // interferer serial sections
  StatsSnapshot stats;

  /// Speculative (lock-elided) commits/s — the rate the convoy destroys.
  double elided_commits_per_sec() const {
    return secs > 0 ? static_cast<double>(stats.commits) / secs : 0;
  }
  /// All completed worker operations/s, elided or serial.
  double total_txns_per_sec() const {
    return secs > 0 ? static_cast<double>(txns) / secs : 0;
  }
  double convoy_depth() const {
    return serial_entries
               ? static_cast<double>(stats.serial_fallbacks) /
                     static_cast<double>(serial_entries)
               : 0.0;
  }
};

/// ~`iters` of abort-proof private work (xorshift64 chain).
inline std::uint64_t private_spin(std::uint64_t x, int iters) {
  for (int i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Worker transactions do ~10 us of private work before their queue
// accesses, so at any instant nearly every preempted worker is
// mid-transaction: each serial entry aborts them all, and the instrumented
// accesses land at the end of the body where a freshly-arrived serial
// request is most likely to be pending. Both are what makes the convoy
// self-sustaining under the cause-blind policy.
constexpr int kWorkerTxnIters = 10000;
constexpr int kInterfererHoldIters = 2000;
constexpr int kInterfererGapIters = 20000;

LemmingResult run_lemming_cell(bool cause_aware, int threads, double secs) {
  const RuntimeConfig saved = config();
  set_exec_mode(ExecMode::Htm);
  // A tight budget makes the cause-blind pathology absorbing: one
  // serial-pending abort escalates, every escalation's own serial entry
  // aborts the other workers, and the convoy feeds itself. Both cells run
  // the SAME budget — the only difference is cause-awareness, which drains
  // serial windows without consuming it.
  config().htm_max_retries = 1;
  TxnAttrs attrs;
  if (!cause_aware) {
    for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c)
      if (static_cast<AbortCause>(c) != AbortCause::Unsafe)
        attrs.with(static_cast<AbortCause>(c), gov::Disposition::Backoff);
    config().watchdog_max_attempts = 0;
    config().watchdog_deadline_ns = 0;
  }
  reset_stats();

  bounded_queue<long> queue(128);
  elidable_mutex work_lock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> serials{0};
  SpinBarrier gate(static_cast<std::size_t>(threads) + 2);

  // The interferer: a short serial section (a logging/IO stand-in) with a
  // breather between entries. Every entry kills all in-flight speculation —
  // the seed of the convoy.
  std::thread interferer([&] {
    gate.arrive_and_wait();
    std::uint64_t local = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    while (!stop.load(std::memory_order_relaxed)) {
      synchronized_do(TLE_TX_SITE("lemming/interferer"), [&](TxContext&) {
        x = private_spin(x, kInterfererHoldIters);
      });
      ++local;
      x = private_spin(x, kInterfererGapIters);
      benchmark::DoNotOptimize(x);
    }
    serials.fetch_add(local);
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      gate.arrive_and_wait();
      std::uint64_t local = 0;
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t);
      long v = t;
      while (!stop.load(std::memory_order_relaxed)) {
        critical(work_lock, TLE_TX_SITE("lemming/worker"), attrs,
                 [&](TxContext&) {
                   x = private_spin(x, kWorkerTxnIters);
                   // Queue metadata at the end of the body (nested,
                   // flat-subsumed): the PBZip2 critical-section shape.
                   if (local & 1)
                     benchmark::DoNotOptimize(queue.try_pop());
                   else
                     benchmark::DoNotOptimize(queue.try_push(v++));
                 });
        benchmark::DoNotOptimize(x);
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
  interferer.join();
  for (auto& w : workers) w.join();

  LemmingResult r;
  r.cause_aware = cause_aware;
  r.threads = threads;
  r.secs = measured;
  r.txns = ops.load();
  r.serial_entries = serials.load();
  r.stats = aggregate_stats();
  check(r.txns > 0, "lemming cell made progress");
  check(r.serial_entries > 0, "interferer entered serial");
  if (!cause_aware)
    check(r.stats.gov_drain_waits == 0, "cause-blind table never drains");

  config() = saved;
  set_exec_mode(ExecMode::Lock);
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void emit_json(const char* path, const std::vector<SweepResult>& sweep,
               const std::vector<LemmingResult>& lemming, double secs,
               int accept_threads) {
  JsonWriter j;
  j.begin_obj();
  j.kv("schema", "tle-governor/v1");
  j.kv("secs_per_cell", secs);

  j.key("sweep");
  j.begin_arr();
  for (const SweepResult& c : sweep) {
    j.begin_obj();
    j.kv("retries", static_cast<std::uint64_t>(c.retries));
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("txns", c.stats.commits + c.stats.serial_commits);
    j.kv("ops_per_sec", c.ops_per_sec());
    j.kv("serial_fallbacks", c.stats.serial_fallbacks);
    j.kv("htm_retries", c.stats.htm_retries);
    j.kv("serial_pct", 100.0 * c.stats.serial_fraction());
    j.end_obj();
  }
  j.end_arr();

  const LemmingResult* on = nullptr;
  const LemmingResult* off = nullptr;
  j.key("lemming");
  j.begin_arr();
  for (const LemmingResult& c : lemming) {
    j.begin_obj();
    j.kv("governor", c.cause_aware ? "on" : "off");
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("txns", c.txns);
    j.kv("elided_commits_per_sec", c.elided_commits_per_sec());
    j.kv("total_txns_per_sec", c.total_txns_per_sec());
    j.kv("serial_entries", c.serial_entries);
    j.kv("serial_fallbacks", c.stats.serial_fallbacks);
    j.kv("convoy_depth", c.convoy_depth());
    j.kv("aborts_serial_pending",
         c.stats.aborts[static_cast<int>(AbortCause::SerialPending)]);
    j.kv("gov_drain_waits", c.stats.gov_drain_waits);
    j.kv("gov_drain_timeouts", c.stats.gov_drain_timeouts);
    j.kv("gov_serial_immediate", c.stats.gov_serial_immediate);
    j.kv("gov_watchdog_escalations", c.stats.gov_watchdog_escalations);
    j.end_obj();
    if (c.threads == accept_threads) (c.cause_aware ? on : off) = &c;
  }
  j.end_arr();

  j.key("acceptance");
  j.begin_obj();
  j.kv("threads", static_cast<std::uint64_t>(accept_threads));
  if (on && off) {
    auto ratio = [&j](const char* k, double num, double base) {
      if (base > 0)
        j.kv(k, num / base);
      else
        j.kv_null(k);
    };
    ratio("commits_ratio", on->elided_commits_per_sec(),
          off->elided_commits_per_sec());
    ratio("total_ratio", on->total_txns_per_sec(), off->total_txns_per_sec());
    const double drop =
        off->stats.serial_fallbacks > 0
            ? 1.0 - static_cast<double>(on->stats.serial_fallbacks) /
                        static_cast<double>(off->stats.serial_fallbacks)
            : 0.0;
    j.kv("fallback_drop", drop);
    j.kv("convoy_depth_on", on->convoy_depth());
    j.kv("convoy_depth_off", off->convoy_depth());
  }
  j.end_obj();
  j.end_obj();

  if (!j.write_file(path)) {
    std::fprintf(stderr, "abl_htm_retry: cannot write %s\n", path);
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_governor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out = argv[i];
  }
  const double secs = env_double("ABL_HTM_RETRY_SECS", smoke ? 0.05 : 1.0);
  const int threads =
      static_cast<int>(env_long("ABL_HTM_RETRY_THREADS", 8));

  std::vector<SweepResult> sweep;
  if (!smoke)
    for (int retries : {1, 2, 4, 8, 16})
      for (int t : {2, 4, 8}) sweep.push_back(run_sweep_cell(retries, t, secs));

  // Off first, on second: the interesting number is the recovery.
  std::vector<LemmingResult> lemming;
  for (bool cause_aware : {false, true})
    lemming.push_back(run_lemming_cell(cause_aware, threads, secs));

  if (!sweep.empty()) {
    std::printf("%8s %8s %14s %12s %12s %10s\n", "retries", "threads",
                "ops/s", "fallbacks", "htm_retries", "serial%");
    for (const SweepResult& c : sweep)
      std::printf("%8d %8d %14.0f %12llu %12llu %9.2f%%\n", c.retries,
                  c.threads, c.ops_per_sec(),
                  static_cast<unsigned long long>(c.stats.serial_fallbacks),
                  static_cast<unsigned long long>(c.stats.htm_retries),
                  100.0 * c.stats.serial_fraction());
  }
  std::printf("%-9s %8s %14s %14s %10s %12s %8s %12s %10s\n", "governor",
              "threads", "elided/s", "total/s", "serials", "fallbacks",
              "convoy", "drains", "watchdog");
  for (const LemmingResult& c : lemming)
    std::printf("%-9s %8d %14.0f %14.0f %10llu %12llu %8.1f %12llu %10llu\n",
                c.cause_aware ? "on" : "off", c.threads,
                c.elided_commits_per_sec(), c.total_txns_per_sec(),
                static_cast<unsigned long long>(c.serial_entries),
                static_cast<unsigned long long>(c.stats.serial_fallbacks),
                c.convoy_depth(),
                static_cast<unsigned long long>(c.stats.gov_drain_waits),
                static_cast<unsigned long long>(
                    c.stats.gov_watchdog_escalations));

  emit_json(out, sweep, lemming, secs, threads);
  std::printf("wrote %s\n", out);

  if (!smoke && lemming.size() == 2) {
    const LemmingResult& off = lemming[0];
    const LemmingResult& on = lemming[1];
    const double on_rate = on.elided_commits_per_sec();
    const double off_rate = off.elided_commits_per_sec();
    // "undefined" when the cause-blind arm elided nothing.
    auto ratio = [](double num, double base) {
      char buf[32] = "undefined";
      if (base > 0) std::snprintf(buf, sizeof buf, "%.2fx", num / base);
      return std::string(buf);
    };
    std::printf("acceptance: elided commits ratio %s (need >= 2.0), "
                "total txns ratio %s, fallbacks "
                "%llu -> %llu (need >= 50%% drop)\n",
                ratio(on_rate, off_rate).c_str(),
                ratio(on.total_txns_per_sec(), off.total_txns_per_sec()).c_str(),
                static_cast<unsigned long long>(off.stats.serial_fallbacks),
                static_cast<unsigned long long>(on.stats.serial_fallbacks));
    // Compared without dividing, so a cause-blind rate of 0 cannot fail it.
    check(on_rate > 0 && on_rate >= 2.0 * off_rate,
          "governor >= 2x cause-blind elided commits/s");
    check(on.stats.serial_fallbacks * 2 <= off.stats.serial_fallbacks,
          "governor halves serial fallbacks");
  }

  const auto failures = g_check_failures.load();
  if (failures) {
    std::fprintf(stderr, "abl_htm_retry: %llu check failure(s)\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}
