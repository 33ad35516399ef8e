// Process-wide runtime state: configuration, the global clock, the orec
// table, the simulated-HTM commit sequence, and statistics aggregation.
#include <cstdio>

#include "tm/config.hpp"
#include "tm/meta.hpp"
#include "tm/obs/site.hpp"
#include "tm/serial_lock.hpp"
#include "tm/stats.hpp"
#include "util/align.hpp"

namespace tle {

namespace {

RuntimeConfig g_config;

struct alignas(kCacheLine) GlobalClock {
  std::atomic<std::uint64_t> value{1};
};
GlobalClock g_clock;

// The striped simulated-HTM commit sequence. One padded seqlock word per
// stripe so disjoint-footprint committers never share a cache line; the
// live stripe count is config().htm_seq_stripes (<= kHtmStripeMax).
struct alignas(kCacheLine) HtmSeqStripe {
  std::atomic<std::uint64_t> value{0};
};
HtmSeqStripe g_htm_stripes[kHtmStripeMax];

struct alignas(kCacheLine) GlLock {
  std::atomic<std::uint64_t> value{0};
};
GlLock g_gl_lock;

// The orec table. Static storage: 64K * 8 B = 512 KB, matching the order of
// libitm's table.
std::atomic<std::uint64_t> g_orecs[kOrecCount];

// TicToc's own orec table (see the design note in meta.hpp: its per-footprint
// timestamps are not coherent with ml_wt's global clock, so the tables must
// not be shared across an stm_algo switch between phases).
std::atomic<std::uint64_t> g_tictoc_orecs[kOrecCount];

SerialLock g_serial_lock;

}  // namespace

RuntimeConfig& config() noexcept { return g_config; }

const char* validate_config(const RuntimeConfig& cfg) noexcept {
  if (cfg.htm_max_retries < 0) return "htm_max_retries must be >= 0";
  if (cfg.stm_max_retries < 0) return "stm_max_retries must be >= 0";
  if (cfg.htm_spurious_abort_rate < 0.0 || cfg.htm_spurious_abort_rate > 1.0)
    return "htm_spurious_abort_rate must be in [0,1]";
  if (cfg.htm_seq_stripes == 0 || cfg.htm_seq_stripes > kHtmStripeMax ||
      (cfg.htm_seq_stripes & (cfg.htm_seq_stripes - 1)) != 0)
    return "htm_seq_stripes must be a power of two in [1, kHtmStripeMax]";
  if (cfg.metrics_period_ms == 0) return "metrics_period_ms must be >= 1";
  if (cfg.metrics_history == 0) return "metrics_history must be >= 1";
  return nullptr;
}

void set_exec_mode(ExecMode mode) noexcept {
  g_config.mode = mode;
  g_config.quiesce = QuiescePolicy::Always;
  g_config.honor_noquiesce = (mode == ExecMode::StmCondVarNoQ);
}

std::atomic<std::uint64_t>& gclock() noexcept { return g_clock.value; }

std::atomic<std::uint64_t>& gl_lock() noexcept { return g_gl_lock.value; }

std::atomic<std::uint64_t>& orec_for(const void* addr) noexcept {
  // Word-granular mapping with a Fibonacci mix so neighbouring fields hit
  // different orecs.
  const std::uintptr_t word = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  const std::size_t idx =
      (word * 0x9E3779B97F4A7C15ULL) >> (64 - kOrecBits);
  return g_orecs[idx];
}

std::atomic<std::uint64_t>& tictoc_orec_for(const void* addr) noexcept {
  const std::uintptr_t word = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  const std::size_t idx =
      (word * 0x9E3779B97F4A7C15ULL) >> (64 - kOrecBits);
  return g_tictoc_orecs[idx];
}

unsigned htm_stripe_index(const void* addr) noexcept {
  // Block-granular orec_for-style Fibonacci mix: addresses in the same
  // 512-byte block share a stripe, distinct blocks scatter uniformly. See
  // the design note in meta.hpp — block granularity is what keeps a small
  // contiguous write set on one or two stripes.
  const std::uintptr_t block =
      reinterpret_cast<std::uintptr_t>(addr) >> kHtmStripeBlockShift;
  const std::uint64_t mixed = block * 0x9E3779B97F4A7C15ULL;
  return static_cast<unsigned>(mixed >> 48) & (g_config.htm_seq_stripes - 1);
}

std::atomic<std::uint64_t>& htm_stripe_seq(unsigned i) noexcept {
  return g_htm_stripes[i].value;
}

SerialLock& serial_lock() noexcept { return g_serial_lock; }

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

const char* to_string(ExecMode m) noexcept {
  switch (m) {
    case ExecMode::Lock: return "Lock";
    case ExecMode::StmSpin: return "STM+Spin";
    case ExecMode::StmCondVar: return "STM+CondVar";
    case ExecMode::StmCondVarNoQ: return "STM+CondVar+NoQuiesce";
    case ExecMode::Htm: return "HTM+CondVar";
  }
  return "?";
}

const char* to_string(StmAlgo a) noexcept {
  switch (a) {
    case StmAlgo::MlWt: return "ml_wt";
    case StmAlgo::GlWt: return "gl_wt";
    case StmAlgo::TicToc: return "tictoc";
  }
  return "?";
}

const char* to_string(QuiescePolicy p) noexcept {
  switch (p) {
    case QuiescePolicy::Always: return "Always";
    case QuiescePolicy::WriterOnly: return "WriterOnly";
    case QuiescePolicy::Never: return "Never";
  }
  return "?";
}

const char* to_string(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::None: return "none";
    case AbortCause::Conflict: return "conflict";
    case AbortCause::Validation: return "validation";
    case AbortCause::Capacity: return "capacity";
    case AbortCause::Unsafe: return "unsafe";
    case AbortCause::SerialPending: return "serial-pending";
    case AbortCause::UserExplicit: return "user-explicit";
    case AbortCause::Spurious: return "spurious";
    case AbortCause::StripeBusy: return "stripe-busy";
    case AbortCause::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

StatsSnapshot aggregate_stats() noexcept {
  StatsSnapshot out;
  ThreadSlot* slots = slot_table();
  const int hw = slot_high_water();
  auto get = [](const TxStats::Counter& c) {
    return c.load(std::memory_order_relaxed);
  };
  for (int i = 0; i < hw; ++i) {
    TxStats& s = slots[i].stats;
    // The table guarantees every scalar counter is summed; the
    // static_assert in stats.hpp guarantees there is nothing else to sum.
#define TLE_TXSTATS_SUM(name, ...) out.name += get(s.name);
    TLE_COUNTERS(TLE_TXSTATS_SUM, TLE_TXSTATS_SUM)
#undef TLE_TXSTATS_SUM
    for (int a = 0; a < kAbortCauseCount; ++a)
      out.aborts[a] += get(s.aborts[a]);
  }
  // Registry overflow is a process-level event (no thread owns it): folded
  // in here so it reaches every consumer of the table snapshot. It
  // survives reset_stats() deliberately — the registry stays full.
  out.obs_site_overflow += obs::site_overflow_count();
  return out;
}

void reset_stats() noexcept {
  ThreadSlot* slots = slot_table();
  const int hw = slot_high_water();
  for (int i = 0; i < hw; ++i) slots[i].stats.reset();
}

std::string StatsSnapshot::report() const {
  char buf[5120];
  int n = std::snprintf(
      buf, sizeof buf,
      "txn starts            %12llu\n"
      "commits               %12llu  (read-only %llu)\n"
      "serial commits        %12llu  (fallbacks %llu)\n"
      "lock sections         %12llu\n"
      "aborts                %12llu  (%.3f%% of starts)\n"
      "  conflict            %12llu\n"
      "  validation          %12llu\n"
      "  capacity            %12llu\n"
      "  unsafe              %12llu\n"
      "  serial-pending      %12llu\n"
      "  user-explicit       %12llu\n"
      "  spurious (sim)      %12llu\n"
      "  stripe-busy         %12llu\n"
      "stripe bumps/f-revals %12llu / %llu\n"
      "tictoc ext ok/fail    %12llu / %llu (lock waits %llu, timeouts %llu)\n"
      "quiesce calls/waits   %12llu / %llu (spins %llu, blocked %.3f ms)\n"
      "grace scans/shared    %12llu / %llu (parked waits %llu)\n"
      "limbo enq/drained     %12llu / %llu (forced flushes %llu)\n"
      "noquiesce req/honored %12llu / %llu (ignored: nested %llu, free %llu)\n"
      "tm alloc/free         %12llu / %llu\n"
      "deferred actions      %12llu\n"
      "condvar waits/timeouts%12llu / %llu\n"
      "htm retries           %12llu\n"
      "read dedup stm/htm    %12llu / %llu (htm write-buffer hits %llu)\n"
      "faults inj/delays     %12llu / %llu (forced: serial %llu, flush "
      "%llu)\n"
      "gov dispositions      %12llu serial / %llu backoff / %llu immediate\n"
      "gov drains/timeouts   %12llu / %llu\n"
      "gov watchdog/stalls   %12llu / %llu\n",
      (unsigned long long)txn_starts, (unsigned long long)commits,
      (unsigned long long)commits_readonly, (unsigned long long)serial_commits,
      (unsigned long long)serial_fallbacks, (unsigned long long)lock_sections,
      (unsigned long long)aborts_total(), 100.0 * abort_rate(),
      (unsigned long long)aborts[static_cast<int>(AbortCause::Conflict)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::Validation)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::Capacity)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::Unsafe)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::SerialPending)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::UserExplicit)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::Spurious)],
      (unsigned long long)aborts[static_cast<int>(AbortCause::StripeBusy)],
      (unsigned long long)stripe_bumps,
      (unsigned long long)stripe_false_revalidations,
      (unsigned long long)tictoc_extensions,
      (unsigned long long)tictoc_extension_fails,
      (unsigned long long)tictoc_wts_waits,
      (unsigned long long)tictoc_lock_timeouts,
      (unsigned long long)quiesce_calls, (unsigned long long)quiesce_waits,
      (unsigned long long)quiesce_spins, quiesce_wait_ns / 1e6,
      (unsigned long long)grace_scans, (unsigned long long)grace_shared,
      (unsigned long long)parked_waits, (unsigned long long)limbo_enqueued,
      (unsigned long long)limbo_drained,
      (unsigned long long)limbo_forced_flush,
      (unsigned long long)noquiesce_requests,
      (unsigned long long)noquiesce_honored,
      (unsigned long long)noquiesce_ignored_nested,
      (unsigned long long)noquiesce_ignored_free,
      (unsigned long long)tm_allocs, (unsigned long long)tm_frees,
      (unsigned long long)deferred_run, (unsigned long long)condvar_waits,
      (unsigned long long)condvar_timeouts, (unsigned long long)htm_retries,
      (unsigned long long)stm_read_dedup, (unsigned long long)htm_read_dedup,
      (unsigned long long)htm_rw_hits, (unsigned long long)faults_injected,
      (unsigned long long)fault_delays,
      (unsigned long long)fault_forced_serial,
      (unsigned long long)fault_forced_flush,
      (unsigned long long)gov_serial_immediate,
      (unsigned long long)gov_backoffs,
      (unsigned long long)gov_immediate_retries,
      (unsigned long long)gov_drain_waits,
      (unsigned long long)gov_drain_timeouts,
      (unsigned long long)gov_watchdog_escalations,
      (unsigned long long)gov_stall_events);
  std::string out(buf, buf + (n < 0 ? 0 : n));
  if (obs_site_overflow) {
    char warn[160];
    const int w = std::snprintf(
        warn, sizeof warn,
        "WARNING: %llu TLE_TX_SITE registration(s) overflowed the %d-entry "
        "site registry; their profiles folded into \"(unnamed)\"\n",
        (unsigned long long)obs_site_overflow, obs::kMaxSites);
    if (w > 0) out.append(warn, warn + w);
  }
  return out;
}

}  // namespace tle
