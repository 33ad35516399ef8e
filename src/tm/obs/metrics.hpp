// Live interval telemetry: windowed deltas over the per-slot × per-site
// SiteCounters tables plus runtime health gauges, retained in a fixed-depth
// ring and exported as streaming `tle-metrics/v1` JSONL, a Prometheus-style
// text exposition, or programmatically.
//
// Cost model: when kMetricsBit is clear the engine pays nothing beyond the
// one relaxed obs::flags() load it already performs. Enabling metrics also
// enables per-site profiling (the counters the windows diff). Every window
// is produced by one "tick": the background sampler (sampler.cpp) ticks on
// a timer, or tests call metrics_tick() directly for thread-free,
// deterministic windows.
//
// Zero-friction activation (read once at startup):
//   TLE_METRICS_OUT=FILE        stream one tle-metrics/v1 record per window
//                               ("-" = stderr); starts the sampler
//   TLE_METRICS_PROM=FILE       rewrite FILE atomically each window with the
//                               Prometheus text exposition; starts the sampler
//   TLE_METRICS_PERIOD_MS=N     override config().metrics_period_ms
//   TLE_METRICS_HISTORY=N       override config().metrics_history
//
// Lifecycle: env activation registers its shutdown with atexit AFTER
// export.cpp armed the tle-obs dump, so (LIFO) the sampler stops and the
// residual final window flushes BEFORE the lifetime dump — per-site window
// deltas therefore sum exactly to the dumped lifetime totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tm/obs/site.hpp"
#include "tm/stats.hpp"

namespace tle::obs {

/// Per-site interval activity inside one window. The site-row counters
/// (SiteTotals) are deltas against the previous tick; total_commits is the
/// cumulative value at this tick (the conservation anchor: summed deltas ==
/// last total).
struct SiteWindow : SiteTotals {
  int id = 0;
  const char* name = "(unnamed)";
  std::uint64_t attempt_hist[LatencyHist::kBuckets] = {};
  std::uint64_t total_commits = 0;
  /// Cumulative starvation signals at this tick (the basis of the exported
  /// "starved_sites" ranking — windows with zero delta still surface a site
  /// that has ever starved).
  std::uint64_t total_watchdog = 0;
  std::uint64_t total_gated = 0;
  /// Attempt-latency percentiles from the window's histogram delta
  /// (midpoint rule, histogram.hpp); 0 in deterministic windows.
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
};

/// Instantaneous runtime health, sampled at the closing tick of a window.
/// Time-valued fields are 0 in deterministic windows.
struct MetricsGauges {
  std::uint64_t oldest_txn_age_ns = 0;  ///< max age over in-flight slots
  std::uint32_t inflight_txns = 0;      ///< slots with an odd epoch seq
  std::uint64_t limbo_pending = 0;      ///< deferred frees awaiting grace
  std::uint64_t grace_last_scan_ns = 0;  ///< latest grace-pass scan time
  std::uint64_t grace_scan_ns = 0;       ///< scan time spent this window
  std::uint64_t serial_hold_ns = 0;      ///< serial write-hold, this window
  std::uint64_t serial_wait_ns = 0;      ///< serial write-wait, this window
  std::uint64_t serial_held_age_ns = 0;  ///< current writer's hold age
  bool storm_active = false;             ///< abort-storm gate engaged
  std::uint32_t storm_inflight = 0;      ///< tokens admitted through gate
  double gov_abort_rate = 0.0;           ///< governor's global estimate
  std::uint64_t storm_gated = 0;         ///< attempts gated, this window
  std::uint64_t watchdog_escalations = 0;  ///< escalations, this window
};

/// One closed interval. Process-level counters are TxStats deltas; `sites`
/// holds only sites with activity inside the window.
struct MetricsWindow {
  std::uint64_t index = 0;       ///< 0-based, monotone per process
  std::uint64_t t_start_ns = 0;  ///< now_ns() of the previous tick
  std::uint64_t t_end_ns = 0;    ///< now_ns() of this tick
  bool deterministic = false;    ///< no wall-clock content (see below)
  bool final_flush = false;      ///< residual window from metrics_stop()
  std::uint64_t txn_starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t serial_commits = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t lock_sections = 0;
  std::uint64_t limbo_enqueued = 0;
  std::uint64_t limbo_drained = 0;
  std::uint64_t htm_routed_frees = 0;
  std::uint64_t priv_immediate_frees = 0;
  std::uint64_t priv_limbo_routed = 0;
  MetricsGauges gauges;
  std::vector<SiteWindow> sites;

  std::uint64_t duration_ns() const noexcept { return t_end_ns - t_start_ns; }
};

inline bool metrics_enabled() noexcept { return flags() & kMetricsBit; }

/// Enable interval metrics: sets kProfileBit (the windows diff the site
/// counters), rebaselines the delta engine at the current counter values,
/// clears the ring, then sets kMetricsBit. Disabling clears kMetricsBit
/// only — an independently enabled profiler stays on.
void metrics_enable(bool on) noexcept;

/// Deterministic mode for tests and seeded fault replays: windows carry no
/// wall-clock-derived bytes (timestamps, durations, rates, percentiles,
/// time gauges are omitted from the JSON), so two identical runs produce
/// byte-identical window sequences.
void metrics_set_deterministic(bool on) noexcept;
bool metrics_deterministic() noexcept;

/// Close the current window now: diff every counter against the previous
/// tick, sample the gauges, push the window onto the ring and return it.
/// Thread-safe (ticks serialize on an internal mutex); the background
/// sampler and manual callers may interleave, each tick owning the interval
/// since the previous one.
MetricsWindow metrics_tick();

/// metrics_tick() with final_flush set: the residual window the sampler
/// emits at shutdown so deltas sum exactly to lifetime totals.
MetricsWindow metrics_tick_final();

/// Latest closed window (default-constructed if none yet).
MetricsWindow metrics_window();

/// Ring contents, oldest first (at most config().metrics_history entries).
std::vector<MetricsWindow> metrics_history();

/// Drop the ring, rebaseline deltas at current counter values, restart
/// window numbering at 0. Test/benchmark-phase reset.
void metrics_reset() noexcept;

/// One tle-metrics/v1 JSONL record for `w` (single line, no trailing \n).
std::string metrics_json(const MetricsWindow& w);

/// Prometheus text exposition: cumulative process/site counters
/// (tle_*_total) plus the live gauges, from a fresh collection.
std::string prometheus_text();

// --- background sampler (sampler.cpp) -------------------------------------

/// Start the background sampler thread (one tick per metrics_period_ms,
/// streaming to the sinks configured via env or metrics_set_sinks).
/// Enables metrics if needed. Idempotent.
void metrics_start();

/// Stop the sampler and emit the residual final window (final_flush=true)
/// to the configured sinks. Safe to call repeatedly; also runs at exit.
void metrics_stop();

bool metrics_sampler_running() noexcept;

/// Configure the streaming sinks programmatically (same semantics as
/// TLE_METRICS_OUT / TLE_METRICS_PROM; empty string disables a sink).
/// Call before metrics_start().
void metrics_set_sinks(const std::string& jsonl_path,
                       const std::string& prom_path);

/// Read the TLE_METRICS_* environment and, if a sink is requested, start
/// the sampler and arm its atexit shutdown. Called from init_from_env()
/// after the tle-obs dump is registered (see the lifecycle note above).
/// Idempotent.
void init_metrics_from_env() noexcept;

}  // namespace tle::obs
