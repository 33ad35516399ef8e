// Per-layer metrics of the traced run: the fixed metric table, the engine /
// sync / governor / per-site figures read from the runtime's public counters,
// and the single-threaded tm_var calibrations.
#include <algorithm>
#include <cctype>
#include <cstdio>

#include "tm/api.hpp"
#include "tm/obs/export.hpp"
#include "tm/stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Transaction sites the workloads run, by the name their TLE_TX_SITE gives
/// them ("(unnamed)" collects sections without a name: the sync queues and
/// the set operations).
const char* const kSites[] = {
    "(unnamed)",
    "pipez/await",
    "pipez/deliver",
    "videnc/btg_claim_row",
    "videnc/cost_row",
    "videnc/cost_sse",
    "videnc/ctu_deps_wait",
    "videnc/ctu_publish",
    "videnc/out_await",
    "videnc/out_mark_ready",
    "videnc/pme_read",
    "videnc/pme_write",
    "videnc/recon_publish",
    "videnc/row_done",
};

struct CauseName {
  tle::AbortCause cause;
  const char* name;
};

const CauseName kCauses[] = {
    {tle::AbortCause::Conflict, "conflict"},
    {tle::AbortCause::Validation, "validation"},
    {tle::AbortCause::Capacity, "capacity"},
    {tle::AbortCause::Spurious, "spurious"},
    {tle::AbortCause::SerialPending, "serial_pending"},
    {tle::AbortCause::StripeBusy, "stripe_busy"},
};

/// "videnc/claim_row" -> "site.videnc.claim_row"; drops characters metric
/// names may not hold.
std::string site_metric(const char* site) {
  std::string out = "site.";
  for (const char* c = site; *c; ++c) {
    if (*c == '/')
      out += '.';
    else if (std::isalnum(static_cast<unsigned char>(*c)) || *c == '_' ||
             *c == '-')
      out += *c;
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median ns per call of `body` over several timed batches.
template <typename F>
double ns_per_call(F&& body) {
  constexpr int kBatches = 9;
  constexpr int kCalls = 20000;
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < kCalls; ++i) body();
    ns.push_back((now_s() - t0) * 1e9 / kCalls);
  }
  return median(ns);
}

std::vector<MetricDef> build_defs() {
  std::vector<MetricDef> d = {
      {"fail_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"bzip.compress_ns_per_byte", "ns/B"},
      {"bzip.decompress_ns_per_byte", "ns/B"},
      {"pipez.compress_mb_s", "MB/s"},
      {"pipez.decompress_mb_s", "MB/s"},
      {"pipez.compress_efficiency", "ratio"},
      {"pipez.decompress_efficiency", "ratio"},
      {"videnc.frames_s", "1/s"},
      {"videnc.serial_frame_ms", "ms"},
      {"videnc.efficiency", "ratio"},
      {"sync.condvar_waits_per_op", "1/op"},
      {"sync.condvar_timeouts_per_op", "1/op"},
      {"tm.txns_per_op", "1/op"},
      {"tm.commit_ratio", "ratio"},
      {"tm.serial_pct", "%"},
  };
  for (const CauseName& c : kCauses)
    d.push_back({std::string("tm.aborts_per_ktxn.") + c.name, "1/ktxn"});
  const std::vector<MetricDef> rest = {
      {"tm.empty_txn_ns", "ns"},
      {"tm.read_ns", "ns"},
      {"tm.write_ns", "ns"},
      {"tm.quiesce_per_op", "1/op"},
      {"tm.quiesce_waits_per_kop", "1/kop"},
      {"tm.quiesce_wait_us_per_kop", "us/kop"},
      {"tm.limbo_forced_flush", "count"},
      {"tm.htm_routed_frees", "count"},
      {"gov.backoffs_per_ktxn", "1/ktxn"},
      {"gov.drain_waits_per_ktxn", "1/ktxn"},
      {"gov.storm_gated", "count"},
      {"gov.watchdog_escalations", "count"},
      {"tm.stripe_bumps_per_commit", "1/commit"},
      {"tm.stripe_false_revalidations_per_ktxn", "1/ktxn"},
      {"dstruct.call_us_p99", "us"},
      {"dstruct.contains_us_p50", "us"},
      {"dstruct.contains_us_p99", "us"},
      {"dstruct.insert_us_p50", "us"},
      {"dstruct.insert_us_p99", "us"},
      {"dstruct.remove_us_p50", "us"},
      {"dstruct.remove_us_p99", "us"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  for (const char* site : kSites) {
    const std::string base = site_metric(site);
    d.push_back({base + ".attempts_per_op", "1/op"});
    d.push_back({base + ".aborts_per_op", "1/op"});
    d.push_back({base + ".attempt_p99_us", "us"});
  }
  return d;
}

}  // namespace

const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = build_defs();
  return defs;
}

void engine_metrics(double units, LayerValues& out) {
  const tle::StatsSnapshot s = tle::aggregate_stats();
  const double txns = static_cast<double>(s.commits + s.serial_commits +
                                          s.lock_sections);
  out["sync.condvar_waits_per_op"] = ratio(s.condvar_waits, units);
  out["sync.condvar_timeouts_per_op"] = ratio(s.condvar_timeouts, units);
  out["tm.txns_per_op"] = ratio(txns, units);
  out["tm.commit_ratio"] = ratio(s.commits, s.txn_starts);
  out["tm.serial_pct"] = 100 * ratio(s.serial_commits, s.commits + s.serial_commits);
  for (const CauseName& c : kCauses)
    out[std::string("tm.aborts_per_ktxn.") + c.name] =
        1000 * ratio(s.aborts[static_cast<int>(c.cause)], txns);
  out["tm.quiesce_per_op"] = ratio(s.quiesce_calls, units);
  out["tm.quiesce_waits_per_kop"] = 1000 * ratio(s.quiesce_waits, units);
  out["tm.quiesce_wait_us_per_kop"] = ratio(s.quiesce_wait_ns, units);
  out["tm.limbo_forced_flush"] = static_cast<double>(s.limbo_forced_flush);
  out["tm.htm_routed_frees"] = static_cast<double>(s.htm_routed_frees);
  out["gov.backoffs_per_ktxn"] = 1000 * ratio(s.gov_backoffs, txns);
  out["gov.drain_waits_per_ktxn"] = 1000 * ratio(s.gov_drain_waits, txns);
  out["gov.storm_gated"] = static_cast<double>(s.gov_storm_gated);
  out["gov.watchdog_escalations"] =
      static_cast<double>(s.gov_watchdog_escalations);
  out["tm.stripe_bumps_per_commit"] = ratio(s.stripe_bumps, s.commits);
  out["tm.stripe_false_revalidations_per_ktxn"] =
      1000 * ratio(s.stripe_false_revalidations, txns);

  for (const tle::obs::SiteProfile& p : tle::obs::collect_site_profiles()) {
    const std::string base = site_metric(p.info.name);
    auto named = [&](const char* n) { return site_metric(n) == base; };
    if (std::none_of(std::begin(kSites), std::end(kSites), named)) {
      std::fprintf(stderr, "perfbench: site %s is not in the metric table\n",
                   p.info.name);
      continue;
    }
    out[base + ".attempts_per_op"] = ratio(p.attempts, units);
    out[base + ".aborts_per_op"] = ratio(p.aborts_total(), units);
    out[base + ".attempt_p99_us"] =
        tle::obs::percentile_from_buckets(p.attempt_hist, 0.99) / 1e3;
  }
}

void calibrate_tm(LayerValues& out) {
  // The barriers are out-of-line engine calls, so the loops cannot be
  // optimized away even though the values read are unused.
  constexpr int kVars = 16;
  static tle::tm_var<long> vars[kVars];
  const double empty = ns_per_call([] { tle::atomic_do([](tle::TxContext&) {}); });
  const double reads = ns_per_call([] {
    tle::atomic_do([](tle::TxContext& tx) {
      for (auto& v : vars) tx.read(v);
    });
  });
  const double writes = ns_per_call([] {
    tle::atomic_do([](tle::TxContext& tx) {
      for (int i = 0; i < kVars; ++i) tx.write(vars[i], static_cast<long>(i));
    });
  });
  out["tm.empty_txn_ns"] = empty;
  out["tm.read_ns"] = (reads - empty) / kVars;
  out["tm.write_ns"] = (writes - empty) / kVars;
}

}  // namespace perfbench
