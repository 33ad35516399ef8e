// Per-access TM overhead microbenchmark — the perf-trajectory anchor.
//
// The paper's central cost story (Figs. 2-5) is that TLE lives or dies on
// per-access runtime overhead: instrumentation on reads/writes, read-set
// validation, and quiescence. This benchmark isolates those hot paths with
// four transaction shapes, each run under all five paper ExecModes:
//
//   read_only       : R distinct reads per transaction (pure read
//                     instrumentation; no validation, no undo)
//   write_heavy     : W distinct writes per transaction (orec acquisition /
//                     store-buffer append + undo logging)
//   read_own_write  : W writes then several read rounds over the same words
//                     (read-own-write lookup — the HTM store-buffer path)
//   large_read_set  : many read rounds over a working set plus a write burst,
//                     two threads, so commit-time validation actually runs
//                     (single-threaded ml_wt commits skip validation when the
//                     clock did not move)
//
// Unlike the figure benchmarks this one emits machine-readable JSON
// (BENCH_tm_ops.json, schema "tle-tm-ops/v1" — see bench_support.hpp) so the
// per-op perf trajectory is diffable across PRs. A smoke run is wired into
// tier-1 ctest (ABL_OVERHEAD_SECS=0.02); full runs default to 0.3 s/cell.
//
// Each workload self-checks transactional results (snapshot atomicity, final
// memory state) and the process exits nonzero on any violation, so the smoke
// run doubles as a correctness gate.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "tm/obs/metrics.hpp"
#include "util/barrier.hpp"
#include "util/env.hpp"
#include "util/timing.hpp"

namespace {

using namespace tle;
using namespace tle::bench;

// Workload geometry. All vars of one workload live in a single contiguous
// array: orec_for walks a full cycle over consecutive words, so contiguous
// words are guaranteed orec-disjoint (no accidental cross-thread aliasing).
constexpr int kRoVars = 256;   // read_only: distinct reads per txn
constexpr int kWrVars = 128;   // write_heavy: distinct writes per txn
constexpr int kRowVars = 128;  // read_own_write: buffered writes per txn
constexpr int kRowRounds = 4;  // ...then kRowRounds reads of each
constexpr int kLrsVars = 1024;  // large_read_set: distinct words per thread
constexpr int kLrsRounds = 64;  // ...read rounds (65536 logged reads)

std::atomic<std::uint64_t> g_check_failures{0};

void check(bool ok, const char* what) {
  if (!ok) {
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "abl_overhead: CHECK FAILED: %s\n", what);
  }
}

struct CellResult {
  std::string workload;
  ExecMode mode{};
  int threads = 0;
  double secs = 0;
  std::uint64_t txns = 0;
  std::uint64_t accesses = 0;
  StatsSnapshot stats;

  double ops_per_sec() const { return secs > 0 ? static_cast<double>(txns) / secs : 0; }
  double accesses_per_sec() const {
    return secs > 0 ? static_cast<double>(accesses) / secs : 0;
  }
};

/// Run `txn_once(tid)` (returning accesses performed) on `threads` threads
/// for ~`secs` seconds; aggregate txn/access counts and the stats delta.
template <typename F>
CellResult run_cell(const char* workload, ExecMode mode, int threads,
                    double secs, F&& txn_once) {
  set_exec_mode(mode);
  reset_stats();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> txns{0}, accesses{0};
  SpinBarrier gate(static_cast<std::size_t>(threads) + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      gate.arrive_and_wait();
      std::uint64_t lt = 0, la = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        la += txn_once(t);
        ++lt;
      }
      txns.fetch_add(lt, std::memory_order_relaxed);
      accesses.fetch_add(la, std::memory_order_relaxed);
    });
  }
  Stopwatch sw;
  gate.arrive_and_wait();
  while (sw.seconds() < secs) std::this_thread::yield();
  stop.store(true);
  for (auto& w : workers) w.join();

  CellResult r;
  r.workload = workload;
  r.mode = mode;
  r.threads = threads;
  r.secs = sw.seconds();
  r.txns = txns.load();
  r.accesses = accesses.load();
  r.stats = aggregate_stats();
  set_exec_mode(ExecMode::Lock);
  return r;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

CellResult wl_read_only(ExecMode mode, double secs) {
  auto vars = std::make_unique<tm_var<long>[]>(kRoVars);
  for (int i = 0; i < kRoVars; ++i) vars[i].unsafe_set(i + 1);
  elidable_mutex mu;
  const long expect = static_cast<long>(kRoVars) * (kRoVars + 1) / 2;
  return run_cell("read_only", mode, 1, secs, [&](int) -> std::uint64_t {
    long sum = 0;
    critical(mu, TLE_TX_SITE("abl/read_only"), [&](TxContext& tx) {
      sum = 0;
      for (int i = 0; i < kRoVars; ++i) sum += tx.read(vars[i]);
    });
    check(sum == expect, "read_only sum");
    benchmark::DoNotOptimize(sum);
    return kRoVars;
  });
}

CellResult wl_write_heavy(ExecMode mode, double secs) {
  auto vars = std::make_unique<tm_var<long>[]>(kWrVars);
  elidable_mutex mu;
  long seq = 0;
  CellResult r = run_cell("write_heavy", mode, 1, secs, [&](int) -> std::uint64_t {
    ++seq;
    critical(mu, TLE_TX_SITE("abl/write_heavy"), [&](TxContext& tx) {
      for (int i = 0; i < kWrVars; ++i) tx.write(vars[i], seq + i);
    });
    return kWrVars;
  });
  for (int i = 0; i < kWrVars; ++i)
    check(vars[i].unsafe_get() == seq + i, "write_heavy final state");
  return r;
}

CellResult wl_read_own_write(ExecMode mode, double secs) {
  auto vars = std::make_unique<tm_var<long>[]>(kRowVars);
  elidable_mutex mu;
  long seq = 0;
  // Expected read-back sum per txn: kRowRounds * sum(seq+i).
  CellResult r = run_cell("read_own_write", mode, 1, secs,
                          [&](int) -> std::uint64_t {
    ++seq;
    long acc = 0;
    critical(mu, TLE_TX_SITE("abl/read_own_write"), [&](TxContext& tx) {
      acc = 0;
      for (int i = 0; i < kRowVars; ++i) tx.write(vars[i], seq + i);
      for (int rnd = 0; rnd < kRowRounds; ++rnd)
        for (int i = 0; i < kRowVars; ++i) acc += tx.read(vars[i]);
    });
    const long expect =
        kRowRounds * (kRowVars * seq +
                      static_cast<long>(kRowVars) * (kRowVars - 1) / 2);
    check(acc == expect, "read_own_write buffered read-back");
    benchmark::DoNotOptimize(acc);
    return static_cast<std::uint64_t>(kRowVars) * (1 + kRowRounds);
  });
  return r;
}

CellResult wl_large_read_set(ExecMode mode, double secs) {
  // Two threads over disjoint halves of one contiguous (orec-disjoint)
  // array. Each transaction re-reads its working set kLrsRounds times and
  // then rewrites it, so (a) the read set reaches kLrsVars*kLrsRounds
  // entries, (b) every logged orec is self-owned by commit time (the
  // O(R x W) validation worst case), and (c) the peer's commits move the
  // global clock so commit-time validation actually runs.
  // The working set is sized so a transaction outlasts a scheduler
  // timeslice even on a single-core host: the peer then commits inside
  // most transactions, defeating ml_wt's "clock did not move" validation
  // skip without relying on yield() being honored.
  constexpr int kThreads = 2;
  auto vars = std::make_unique<tm_var<long>[]>(kThreads * kLrsVars);
  for (int i = 0; i < kThreads * kLrsVars; ++i) vars[i].unsafe_set(1);
  elidable_mutex mu;
  return run_cell("large_read_set", mode, kThreads, secs,
                  [&](int tid) -> std::uint64_t {
    tm_var<long>* mine = &vars[tid * kLrsVars];
    long acc = 0, first = 0;
    critical(mu, TLE_TX_SITE("abl/large_read_set"), [&](TxContext& tx) {
      acc = 0;
      first = 0;
      for (int rnd = 0; rnd < kLrsRounds; ++rnd) {
        long s = 0;
        for (int i = 0; i < kLrsVars; ++i) s += tx.read(mine[i]);
        if (rnd == 0) first = s;
        acc += s;
      }
      for (int i = 0; i < kLrsVars; ++i)
        tx.write(mine[i], (acc % 1024) + i + 1);
    });
    // Snapshot atomicity: every round must have seen the same values.
    check(acc == first * kLrsRounds, "large_read_set snapshot atomicity");
    benchmark::DoNotOptimize(acc);
    return static_cast<std::uint64_t>(kLrsVars) * (kLrsRounds + 1);
  });
}

// ---------------------------------------------------------------------------
// JSON emission (schema "tle-tm-ops/v1" — documented in bench_support.hpp)
// ---------------------------------------------------------------------------

void emit_json(const char* path, const std::vector<CellResult>& cells,
               double secs) {
  JsonWriter j;
  j.begin_obj();
  j.kv("schema", "tle-tm-ops/v1");
  j.kv("secs_per_cell", secs);
  j.key("results");
  j.begin_arr();
  for (const CellResult& c : cells) {
    j.begin_obj();
    j.kv("workload", c.workload.c_str());
    j.kv("mode", mode_tag(c.mode));
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("txns", c.txns);
    j.kv("ops_per_sec", c.ops_per_sec());
    j.kv("accesses_per_sec", c.accesses_per_sec());
    j.kv("abort_pct", 100.0 * c.stats.abort_rate());
    j.kv("serial_pct", 100.0 * c.stats.serial_fraction());
    j.kv("quiesce_waits", c.stats.quiesce_waits);
    j.kv("quiesce_spins", c.stats.quiesce_spins);
    j.kv("htm_read_dedup", c.stats.htm_read_dedup);
    j.kv("htm_rw_hits", c.stats.htm_rw_hits);
    j.kv("htm_routed_frees", c.stats.htm_routed_frees);
    j.kv("priv_immediate_frees", c.stats.priv_immediate_frees);
    j.kv("priv_limbo_routed", c.stats.priv_limbo_routed);
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();

  if (!j.write_file(path)) {
    std::fprintf(stderr, "abl_overhead: cannot write %s\n", path);
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double secs = env_double("ABL_OVERHEAD_SECS", env_double("MICRO_SECS", 0.3));
  const char* out = argc > 1 ? argv[1] : "BENCH_tm_ops.json";

  // ABL_OBS=1 turns on the full observability stack (per-site profiling +
  // flight recorder) for the duration of the run — this is the knob used to
  // measure the enabled-vs-disabled overhead acceptance numbers.
  if (env_long("ABL_OBS", 0)) {
    obs::profile_enable(true);
    trace::enable(true);
    std::printf("abl_overhead: observability ON (profiling + trace)\n");
  }

  // ABL_METRICS=1 additionally arms the interval sampler (background thread
  // ticking at config().metrics_period_ms), so the live-telemetry A/B
  // overhead can be measured against the same cells: run once with the knob
  // off and once with it on, and compare ops/s.
  if (env_long("ABL_METRICS", 0)) {
    obs::metrics_start();
    std::printf("abl_overhead: interval metrics sampler ON (period=%u ms)\n",
                config().metrics_period_ms);
  }

  std::vector<CellResult> cells;
  for (ExecMode mode : kPaperModes) {
    cells.push_back(wl_read_only(mode, secs));
    cells.push_back(wl_write_heavy(mode, secs));
    cells.push_back(wl_read_own_write(mode, secs));
    cells.push_back(wl_large_read_set(mode, secs));
  }

  std::printf("%-16s %-16s %9s %12s %12s %9s %10s %10s\n", "workload",
              "mode", "threads", "ops/s", "access/s", "abort%", "htm_dedup",
              "rw_hits");
  for (const CellResult& c : cells) {
    std::printf("%-16s %-16s %9d %12.0f %12.0f %9.3f %10llu %10llu\n",
                c.workload.c_str(), mode_tag(c.mode), c.threads,
                c.ops_per_sec(), c.accesses_per_sec(),
                100.0 * c.stats.abort_rate(),
                static_cast<unsigned long long>(c.stats.htm_read_dedup),
                static_cast<unsigned long long>(c.stats.htm_rw_hits));
  }
  emit_json(out, cells, secs);
  std::printf("wrote %s\n", out);

  const auto failures = g_check_failures.load();
  if (failures) {
    std::fprintf(stderr, "abl_overhead: %llu check failure(s)\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}
