// Commit-time quiescence at scale — the tentpole benchmark for the grace-
// period overhaul (paper Sections IV and VII).
//
// Quiescence is the dominant overhead of TMTS-compliant lock elision: every
// committing writer must wait out all concurrent transactions, and every
// transaction that frees memory must additionally wait out ALL domains
// before the memory returns to the allocator. This benchmark measures
// exactly that cost: writer-commit throughput as a function of thread count
// under the three quiescence regimes of Figure 5, with and without
// transactional frees, while one peer thread holds long transactions open
// (see kStragglerIters below). Writers touch disjoint words, so there are
// no data conflicts — all scaling loss is quiescence (plus scheduling).
//
// Emits BENCH_quiesce.json (schema "tle-quiesce/v1", documented below and
// ingested by scripts/summarize_bench.py). `--smoke` runs a fast
// self-checking pass that is wired into the tier-1 ctest suite like
// abl_overhead.
//
//   {
//     "schema": "tle-quiesce/v1",
//     "secs_per_cell": <double>,
//     "results": [
//       { "policy": "Always|WriterOnly|NoQ",
//         "frees": "none|heavy",
//         "threads": <int>,                // writer threads
//         "stragglers": <int>,             // long-transaction peers (0 or 1)
//         "txns": <uint>,                  // committed writer transactions
//         "straggler_txns": <uint>,
//         "commits_per_sec": <double>,     // writer commits only
//         "quiesce_waits": <uint>, "quiesce_spins": <uint>,
//         "parked_waits": <uint>,          // 0 on pre-grace engines
//         "grace_scans": <uint>, "grace_shared": <uint>,
//         "limbo_enqueued": <uint>, "limbo_drained": <uint>,
//         "tm_frees": <uint> }, ... ]
//   }
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
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

constexpr int kVarsPerThread = 64;  // disjoint, conflict-free writer footprint
constexpr int kTxWrites = 16;       // writes per transaction
constexpr int kTxReadRounds = 4;    // read passes over the footprint per txn
constexpr int kMaxBenchThreads = 32;

// The long-transaction peer. Quiescence only costs when a committer can
// observe a peer mid-transaction, so every multi-writer cell runs one extra
// thread whose read-only transactions do ~150 us of private computation
// (no tm_var accesses, so they can never abort and their length is
// deterministic — an instrumented read set would be vulnerable to orec-hash
// collisions with the writers and livelock). This is the paper's §IV
// regime: commit-time quiescence serializes writers behind whatever long
// transaction happens to be in flight. Single-writer cells omit the peer:
// they are the uncontended-commit-cost gauge.
//
// The cells run with multi-domain quiescence (ablation A3): writers elide a
// domain-0 lock, the long peer elides a domain-1 lock. Ordering quiescence
// is therefore domain-filtered — writers only wait out other writers — but
// the §IV-B allocator rule still forces every memory-freeing commit to wait
// out ALL domains, long peer included. That is precisely the cost this
// PR's limbo reclamation removes, and the reason the free-heavy cells
// collapse on a pre-limbo engine.
constexpr int kStragglerIters = 100000;
constexpr std::uint32_t kWriterDomain = 0;
constexpr std::uint32_t kStragglerDomain = 1;

std::atomic<std::uint64_t> g_check_failures{0};

void check(bool ok, const char* what) {
  if (!ok) {
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "quiesce_scale: CHECK FAILED: %s\n", what);
  }
}

struct Regime {
  const char* name;
  QuiescePolicy policy;
};

const Regime kRegimes[] = {
    {"Always", QuiescePolicy::Always},
    {"WriterOnly", QuiescePolicy::WriterOnly},
    {"NoQ", QuiescePolicy::Never},
};

struct CellResult {
  std::string policy;
  bool frees = false;
  int threads = 0;
  int stragglers = 0;
  double secs = 0;
  std::uint64_t txns = 0;
  std::uint64_t straggler_txns = 0;
  StatsSnapshot stats;

  double commits_per_sec() const {
    return secs > 0 ? static_cast<double>(txns) / secs : 0;
  }
};

struct BenchNode {
  tm_var<long> value{0};
};

/// One writer transaction: kTxWrites disjoint writes plus kTxReadRounds
/// read passes over the thread's own footprint, plus an alloc/free pair when
/// `frees` is set — each iteration frees the previous iteration's node, so
/// every transaction after the first carries a deferred free (the §IV-B
/// allocator-rule path).
inline long writer_txn(elidable_mutex& m, tm_var<long>* mine, long seq,
                       bool frees, BenchNode** prev) {
  long acc = 0;
  critical(m, TLE_TX_SITE("qsc/writer"), [&](TxContext& tx) {
    acc = 0;
    for (int i = 0; i < kTxWrites; ++i) tx.write(mine[i], seq + i);
    for (int rnd = 0; rnd < kTxReadRounds; ++rnd)
      for (int i = 0; i < kVarsPerThread; ++i) acc += tx.read(mine[i]);
    if (frees) {
      BenchNode* fresh = tx.create<BenchNode>();
      fresh->value.unsafe_set(seq);
      if (*prev) tx.destroy(*prev);
      *prev = fresh;
    }
  });
  return acc;
}

/// Deterministic ~150 us of abort-proof private work (xorshift64 chain).
inline std::uint64_t straggler_spin(std::uint64_t x) {
  for (int i = 0; i < kStragglerIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Run `threads` writers (plus one long-transaction peer when `threads` > 1)
/// for ~`secs` under the given regime.
CellResult run_cell(const Regime& regime, bool frees, int threads,
                    double secs) {
  set_exec_mode(ExecMode::StmCondVar);
  config().quiesce = regime.policy;
  config().multi_domain = true;
  reset_stats();

  const int stragglers = threads > 1 ? 1 : 0;
  elidable_mutex wlock{kWriterDomain};
  elidable_mutex slock{kStragglerDomain};
  auto vars = std::make_unique<tm_var<long>[]>(
      static_cast<std::size_t>(threads) * kVarsPerThread);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> txns{0};
  std::atomic<std::uint64_t> stxns{0};
  SpinBarrier gate(static_cast<std::size_t>(threads + stragglers) + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads + stragglers));
  for (int t = 0; t < stragglers; ++t) {
    workers.emplace_back([&] {
      gate.arrive_and_wait();
      std::uint64_t lt = 0;
      std::uint64_t x = 0x9E3779B97F4A7C15ULL;
      while (!stop.load(std::memory_order_relaxed)) {
        critical(slock, TLE_TX_SITE("qsc/straggler"),
                 [&](TxContext&) { x = straggler_spin(x); });
        benchmark::DoNotOptimize(x);
        ++lt;
      }
      stxns.fetch_add(lt, std::memory_order_relaxed);
    });
  }
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      tm_var<long>* mine = &vars[t * kVarsPerThread];
      BenchNode* prev = nullptr;
      gate.arrive_and_wait();
      std::uint64_t lt = 0;
      long seq = 0;
      long acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++seq;
        acc ^= writer_txn(wlock, mine, seq, frees, &prev);
        ++lt;
      }
      benchmark::DoNotOptimize(acc);
      // Release the last node outside the measurement window.
      if (prev)
        critical(wlock, TLE_TX_SITE("qsc/cleanup"),
                 [&](TxContext& tx) { tx.destroy(prev); });
      txns.fetch_add(lt, std::memory_order_relaxed);
      // Per-thread invariant: our words hold what our last transaction
      // wrote, seq + i, or their initial 0 when the thread reached its loop
      // after `stop` and ran none.
      for (int i = 0; i < kTxWrites; ++i)
        check(mine[i].unsafe_get() == (seq ? seq + i : 0),
              "writer final state");
    });
  }
  Stopwatch sw;
  gate.arrive_and_wait();
  while (sw.seconds() < secs) std::this_thread::yield();
  stop.store(true);
  const double measured = sw.seconds();
  for (auto& w : workers) w.join();

  CellResult r;
  r.policy = regime.name;
  r.frees = frees;
  r.threads = threads;
  r.stragglers = stragglers;
  r.secs = measured;
  r.txns = txns.load();
  r.straggler_txns = stxns.load();
  r.stats = aggregate_stats();
  config().multi_domain = false;
  set_exec_mode(ExecMode::Lock);
  return r;
}

void emit_json(const char* path, const std::vector<CellResult>& cells,
               double secs) {
  JsonWriter j;
  j.begin_obj();
  j.kv("schema", "tle-quiesce/v1");
  j.kv("secs_per_cell", secs);
  j.key("results");
  j.begin_arr();
  for (const CellResult& c : cells) {
    j.begin_obj();
    j.kv("policy", c.policy.c_str());
    j.kv("frees", c.frees ? "heavy" : "none");
    j.kv("threads", static_cast<std::uint64_t>(c.threads));
    j.kv("stragglers", static_cast<std::uint64_t>(c.stragglers));
    j.kv("txns", c.txns);
    j.kv("straggler_txns", c.straggler_txns);
    j.kv("commits_per_sec", c.commits_per_sec());
    j.kv("quiesce_waits", c.stats.quiesce_waits);
    j.kv("quiesce_spins", c.stats.quiesce_spins);
    j.kv("parked_waits", c.stats.parked_waits);
    j.kv("grace_scans", c.stats.grace_scans);
    j.kv("grace_shared", c.stats.grace_shared);
    j.kv("limbo_enqueued", c.stats.limbo_enqueued);
    j.kv("limbo_drained", c.stats.limbo_drained);
    j.kv("tm_frees", c.stats.tm_frees);
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();

  if (!j.write_file(path)) {
    std::fprintf(stderr, "quiesce_scale: cannot write %s\n", path);
    g_check_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_quiesce.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out = argv[i];
  }
  const double secs = env_double("QUIESCE_SCALE_SECS", smoke ? 0.02 : 0.3);
  const int max_threads = static_cast<int>(
      env_long("QUIESCE_SCALE_MAX_THREADS", smoke ? 4 : 8));

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads && t <= kMaxBenchThreads; t *= 2)
    thread_counts.push_back(t);

  std::vector<CellResult> cells;
  for (const Regime& regime : kRegimes)
    for (bool frees : {false, true})
      for (int t : thread_counts)
        cells.push_back(run_cell(regime, frees, t, secs));

  std::printf("%-12s %-6s %8s %12s %9s %12s %12s %8s %12s\n", "policy",
              "frees", "threads", "commits/s", "strag_tx", "q_waits",
              "q_spins", "parked", "grace s/sh");
  for (const CellResult& c : cells) {
    char grace[32];
    std::snprintf(grace, sizeof grace, "%llu/%llu",
                  static_cast<unsigned long long>(c.stats.grace_scans),
                  static_cast<unsigned long long>(c.stats.grace_shared));
    std::printf("%-12s %-6s %8d %12.0f %9llu %12llu %12llu %8llu %12s\n",
                c.policy.c_str(), c.frees ? "heavy" : "none", c.threads,
                c.commits_per_sec(),
                static_cast<unsigned long long>(c.straggler_txns),
                static_cast<unsigned long long>(c.stats.quiesce_waits),
                static_cast<unsigned long long>(c.stats.quiesce_spins),
                static_cast<unsigned long long>(c.stats.parked_waits),
                grace);
  }
  emit_json(out, cells, secs);
  std::printf("wrote %s\n", out);

  const auto failures = g_check_failures.load();
  if (failures) {
    std::fprintf(stderr, "quiesce_scale: %llu check failure(s)\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}
