// Aggregation and export of the observability layer: the ranked per-site
// text table, the stable `tle-obs/v1` JSON document (process-wide TxStats +
// per-site profiles + histograms), and the Chrome-trace-event JSON that
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
//
// Zero-friction activation (read once at startup, dumped atexit):
//   TLE_TRACE=1            enable the flight recorder
//   TLE_TRACE_OUT=FILE     where the Perfetto JSON goes (default
//                          tle_trace.json; implies TLE_TRACE)
//   TLE_STATS_DUMP=1       per-site table + stats report to stderr at exit
//   TLE_STATS_DUMP=FILE    same, plus the tle-obs/v1 JSON written to FILE
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tm/obs/site.hpp"
#include "tm/trace.hpp"

namespace tle::obs {

/// Plain-value aggregate of one site's counters across all thread slots.
struct SiteProfile : SiteTotals {
  int id = 0;
  SiteInfo info{};
  std::uint64_t attempt_hist[LatencyHist::kBuckets] = {};
  std::uint64_t quiesce_hist[LatencyHist::kBuckets] = {};
};

/// Sum every thread's per-site counters. Sites whose counters are all zero
/// are omitted, so the listed sites still sum to the thread totals; site 0
/// ("(unnamed)") appears iff something was counted outside a named site.
std::vector<SiteProfile> collect_site_profiles();

/// Ranked (by aborts, then attempts) fixed-width table of the profiles —
/// the Figure-4 view: per site, attempts/commits/aborts-by-cause/serial.
std::string site_table(const std::vector<SiteProfile>& profiles);

/// Ranked starvation table for the governor: sites ordered by watchdog
/// escalations, then storm-gate waits, then drain waits. Sites with none of
/// the three are omitted; empty string when nothing starved. (The public
/// alias gov::starvation_report() calls this on a fresh collection.)
std::string starvation_table(const std::vector<SiteProfile>& profiles);

/// The `tle-obs/v1` document: {schema, mode, stats{...}, sites[...]}.
/// `stats` carries every TLE_COUNTERS counter by name and each site object
/// every site-row counter, each plus the per-cause abort breakdown, so both
/// are schema-complete by construction.
std::string obs_json();

/// Chrome trace-event JSON ("traceEvents") from a flight-recorder
/// snapshot: one track per thread slot, "X" slices for commits / aborts /
/// serial sections / quiesces, instant events marking abort causes.
std::string chrome_trace_json(const std::vector<trace::Record>& records);

/// Write `body` to `path` ("-" or "" = stderr). Returns false on I/O error.
bool write_text_file(const std::string& path, const std::string& body);

/// Read TLE_TRACE / TLE_STATS_DUMP / TLE_TRACE_OUT and arm the atexit
/// dump. Runs automatically at static-init time (site.cpp); idempotent.
void init_from_env() noexcept;

/// The atexit hook body, callable directly from tools that want the dump
/// before exit (flushes table/report/JSONs per the current env settings).
void dump_now();

}  // namespace tle::obs
