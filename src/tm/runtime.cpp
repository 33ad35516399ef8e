// Runtime configuration checks, the name tables and statistics
// aggregation. The process-wide objects themselves (configuration, global
// clock, orec table, simulated-HTM commit sequence, serial lock) are inline
// variables in the headers that declare their accessors.
#include <cstdio>

#include "tm/config.hpp"
#include "tm/meta.hpp"
#include "tm/obs/site.hpp"
#include "tm/stats.hpp"

namespace tle {

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
  RuntimeConfig& cfg = config();
  cfg.mode = mode;
  cfg.quiesce = QuiescePolicy::Always;
  cfg.honor_noquiesce = (mode == ExecMode::StmCondVarNoQ);
}

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
      "quiesce calls/waits   %12llu / %llu (spins %llu, blocked %.3f ms)\n"
      "grace scans/shared    %12llu / %llu (parked waits %llu)\n"
      "limbo enq/drained     %12llu / %llu (forced flushes %llu)\n"
      "noquiesce req/honored %12llu / %llu (ignored: nested %llu, free %llu)\n"
      "tm alloc/free         %12llu / %llu\n"
      "deferred actions      %12llu\n"
      "condvar waits/timeouts%12llu / %llu\n"
      "htm retries           %12llu\n"
      "htm read dedup        %12llu (write-buffer hits %llu)\n"
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
      (unsigned long long)htm_read_dedup, (unsigned long long)htm_rw_hits,
      (unsigned long long)faults_injected, (unsigned long long)fault_delays,
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
