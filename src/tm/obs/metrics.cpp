// Windowed-metrics delta engine: snapshots the per-slot × per-site counter
// tables and the process TxStats at every tick, diffs them against the
// previous tick, samples the health gauges, and retains the windows in a
// ring. The engine's hot paths are untouched — everything here is
// sampler-side reads of counters the profiler already maintains.
#include "tm/obs/metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <mutex>

#include "tm/obs/export.hpp"
#include "tm/registry.hpp"
#include "tm/serial_lock.hpp"
#include "util/timing.hpp"

namespace tle::obs {

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, buf + std::min<int>(n, sizeof buf - 1));
}

std::string json_escape(const char* s) {
  std::string out;
  for (; s && *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      (out += '\\') += c;
    else if (static_cast<unsigned char>(c) < 0x20)
      append_fmt(out, "\\u%04x", c);
    else
      out += c;
  }
  return out;
}

/// Saturating delta that survives a mid-run counter reset: a current value
/// below the baseline means the counter restarted from zero, so the whole
/// current value is the interval's activity.
std::uint64_t delta(std::uint64_t cur, std::uint64_t prev) noexcept {
  return cur >= prev ? cur - prev : cur;
}

/// Per-site snapshot: the site-row totals plus the attempt histogram.
struct SiteSnap : SiteTotals {
  std::uint64_t hist[LatencyHist::kBuckets] = {};
};

/// Sum every slot's table into `out[0..kMaxSites)` (all sites, unfiltered —
/// the delta engine needs stable indexing, unlike collect_site_profiles).
void collect_sites(SiteSnap* out) {
  for (int id = 0; id < kMaxSites; ++id) out[id] = SiteSnap{};
  const int hw = slot_high_water();
  for (int s = 0; s < hw; ++s) {
    const SiteCounters* t = peek_site_table(s);
    if (!t) continue;
    for (int id = 0; id < kMaxSites; ++id) {
      out[id].add(t[id]);
      for (int b = 0; b < LatencyHist::kBuckets; ++b)
        out[id].hist[b] +=
            t[id].attempt_ns.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

struct State {
  std::mutex mu;
  bool baselined = false;
  std::unique_ptr<SiteSnap[]> prev_sites{new SiteSnap[kMaxSites]};
  std::unique_ptr<SiteSnap[]> cur_sites{new SiteSnap[kMaxSites]};
  StatsSnapshot prev_stats;
  std::uint64_t prev_serial_hold = 0;
  std::uint64_t prev_serial_wait = 0;
  std::uint64_t prev_grace_scan = 0;
  std::uint64_t next_index = 0;
  std::uint64_t last_tick_ns = 0;
  std::vector<MetricsWindow> ring;
  std::atomic<bool> deterministic{false};
};

// Heap-allocated, never destroyed: ticks may run from atexit handlers and
// from the sampler thread during shutdown, after static destructors of
// other objects would already have fired.
State& state() {
  static State* s = new State();
  return *s;
}

void rebaseline_locked(State& st) {
  collect_sites(st.prev_sites.get());
  st.prev_stats = aggregate_stats();
  SerialLock& sl = serial_lock();
  st.prev_serial_hold = sl.write_hold_ns_total();
  st.prev_serial_wait = sl.write_wait_ns_total();
  st.prev_grace_scan = grace_state().scan_ns_total.load(std::memory_order_relaxed);
  st.last_tick_ns = st.deterministic.load(std::memory_order_relaxed)
                        ? 0
                        : now_ns();
  st.baselined = true;
}

void fill_gauges(State& st, MetricsWindow& w, bool det) {
  MetricsGauges& g = w.gauges;
  const int hw = slot_high_water();
  ThreadSlot* slots = slot_table();
  const std::uint64_t now = det ? 0 : now_ns();
  for (int i = 0; i < hw; ++i) {
    if (slots[i].seq.load(std::memory_order_relaxed) & 1) {
      ++g.inflight_txns;
      if (!det) {
        const std::uint64_t t0 =
            slots[i].txn_begin_ns.load(std::memory_order_relaxed);
        if (t0 && now > t0) g.oldest_txn_age_ns =
            std::max(g.oldest_txn_age_ns, now - t0);
      }
    }
    g.limbo_pending += slots[i].limbo_pending.load(std::memory_order_relaxed);
  }
  if (!det) {
    GraceState& gs = grace_state();
    g.grace_last_scan_ns = gs.last_scan_ns.load(std::memory_order_relaxed);
    const std::uint64_t scan_total =
        gs.scan_ns_total.load(std::memory_order_relaxed);
    g.grace_scan_ns = delta(scan_total, st.prev_grace_scan);
    st.prev_grace_scan = scan_total;
    SerialLock& sl = serial_lock();
    const std::uint64_t hold = sl.write_hold_ns_total();
    const std::uint64_t wait = sl.write_wait_ns_total();
    g.serial_hold_ns = delta(hold, st.prev_serial_hold);
    g.serial_wait_ns = delta(wait, st.prev_serial_wait);
    st.prev_serial_hold = hold;
    st.prev_serial_wait = wait;
    const std::uint64_t since = sl.write_held_since_ns();
    if (since && now > since) g.serial_held_age_ns = now - since;
  }
}

MetricsWindow tick_locked(State& st, bool final_flush) {
  if (!st.baselined) rebaseline_locked(st);
  const bool det = st.deterministic.load(std::memory_order_relaxed);

  MetricsWindow w;
  w.index = st.next_index++;
  w.deterministic = det;
  w.final_flush = final_flush;
  w.t_start_ns = st.last_tick_ns;
  w.t_end_ns = det ? 0 : now_ns();
  st.last_tick_ns = w.t_end_ns;

  // Process-level TxStats deltas.
  const StatsSnapshot cur = aggregate_stats();
  const StatsSnapshot& prev = st.prev_stats;
  w.txn_starts = delta(cur.txn_starts, prev.txn_starts);
  w.commits = delta(cur.commits, prev.commits);
  w.aborts = delta(cur.aborts_total(), prev.aborts_total());
  w.serial_commits = delta(cur.serial_commits, prev.serial_commits);
  w.serial_fallbacks = delta(cur.serial_fallbacks, prev.serial_fallbacks);
  w.lock_sections = delta(cur.lock_sections, prev.lock_sections);
  w.limbo_enqueued = delta(cur.limbo_enqueued, prev.limbo_enqueued);
  w.limbo_drained = delta(cur.limbo_drained, prev.limbo_drained);
  w.htm_routed_frees = delta(cur.htm_routed_frees, prev.htm_routed_frees);
  w.priv_immediate_frees =
      delta(cur.priv_immediate_frees, prev.priv_immediate_frees);
  w.priv_limbo_routed = delta(cur.priv_limbo_routed, prev.priv_limbo_routed);

  // Per-site deltas; only sites active inside the window are materialized.
  collect_sites(st.cur_sites.get());
  const int sites = site_count();
  for (int id = 0; id < sites; ++id) {
    const SiteSnap& c = st.cur_sites[id];
    const SiteSnap& p = st.prev_sites[id];
    SiteWindow sw;
    sw.id = id;
#define TLE_SITE_DELTA(name, site, ...) sw.site = delta(c.site, p.site);
    TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_DELTA)
#undef TLE_SITE_DELTA
    for (int a = 0; a < kAbortCauseCount; ++a)
      sw.aborts[a] = delta(c.aborts[a], p.aborts[a]);
    const std::uint64_t activity =
        sw.attempts + sw.commits + sw.serial_commits + sw.serial_fallbacks +
        sw.aborts_total() + sw.watchdog_escalations;
    if (!activity) continue;
    sw.name = id == 0 ? "(unnamed)" : site_info(id).name;
    sw.total_commits = c.commits;
    sw.total_watchdog = c.watchdog_escalations;
    sw.total_drains = c.drain_waits;
    for (int b = 0; b < LatencyHist::kBuckets; ++b)
      sw.attempt_hist[b] = delta(c.hist[b], p.hist[b]);
    if (!det) {
      sw.p50_ns = percentile_from_buckets(sw.attempt_hist, 0.50);
      sw.p99_ns = percentile_from_buckets(sw.attempt_hist, 0.99);
      sw.p999_ns = percentile_from_buckets(sw.attempt_hist, 0.999);
    }
    w.sites.push_back(sw);
  }
  std::swap(st.prev_sites, st.cur_sites);

  fill_gauges(st, w, det);
  w.gauges.watchdog_escalations =
      delta(cur.gov_watchdog_escalations, prev.gov_watchdog_escalations);
  st.prev_stats = cur;

  const std::size_t depth = std::max(1u, config().metrics_history);
  st.ring.push_back(w);
  if (st.ring.size() > depth)
    st.ring.erase(st.ring.begin(),
                  st.ring.begin() +
                      static_cast<std::ptrdiff_t>(st.ring.size() - depth));
  return w;
}

}  // namespace

void metrics_enable(bool on) noexcept {
  State& st = state();
  if (on) {
    set_flag(kProfileBit, true);
    {
      std::lock_guard<std::mutex> lk(st.mu);
      st.ring.clear();
      rebaseline_locked(st);
    }
    set_flag(kMetricsBit, true);
  } else {
    set_flag(kMetricsBit, false);
  }
}

void metrics_set_deterministic(bool on) noexcept {
  state().deterministic.store(on, std::memory_order_relaxed);
}

bool metrics_deterministic() noexcept {
  return state().deterministic.load(std::memory_order_relaxed);
}

MetricsWindow metrics_tick() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  return tick_locked(st, /*final_flush=*/false);
}

MetricsWindow metrics_tick_final() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  return tick_locked(st, /*final_flush=*/true);
}

MetricsWindow metrics_window() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  return st.ring.empty() ? MetricsWindow{} : st.ring.back();
}

std::vector<MetricsWindow> metrics_history() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  return st.ring;
}

void metrics_reset() noexcept {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  st.ring.clear();
  st.next_index = 0;
  rebaseline_locked(st);
}

std::string metrics_json(const MetricsWindow& w) {
  std::string out;
  out += "{\"schema\":\"tle-metrics/v1\",";
  append_fmt(out, "\"window\":%llu,\"final\":%s,\"deterministic\":%s,",
             (unsigned long long)w.index, w.final_flush ? "true" : "false",
             w.deterministic ? "true" : "false");
  const double dur_s =
      w.duration_ns() ? static_cast<double>(w.duration_ns()) / 1e9 : 0.0;
  if (!w.deterministic)
    append_fmt(out,
               "\"t_start_ns\":%llu,\"t_end_ns\":%llu,\"duration_ns\":%llu,",
               (unsigned long long)w.t_start_ns,
               (unsigned long long)w.t_end_ns,
               (unsigned long long)w.duration_ns());

  append_fmt(out,
             "\"totals\":{\"txn_starts\":%llu,\"commits\":%llu,"
             "\"aborts\":%llu,\"serial_commits\":%llu,"
             "\"serial_fallbacks\":%llu,\"lock_sections\":%llu,"
             "\"limbo_enqueued\":%llu,\"limbo_drained\":%llu,"
             "\"htm_routed_frees\":%llu,\"priv_immediate_frees\":%llu,"
             "\"priv_limbo_routed\":%llu",
             (unsigned long long)w.txn_starts, (unsigned long long)w.commits,
             (unsigned long long)w.aborts,
             (unsigned long long)w.serial_commits,
             (unsigned long long)w.serial_fallbacks,
             (unsigned long long)w.lock_sections,
             (unsigned long long)w.limbo_enqueued,
             (unsigned long long)w.limbo_drained,
             (unsigned long long)w.htm_routed_frees,
             (unsigned long long)w.priv_immediate_frees,
             (unsigned long long)w.priv_limbo_routed);
  if (!w.deterministic) {
    const double abort_ratio =
        w.txn_starts ? static_cast<double>(w.aborts) /
                           static_cast<double>(w.txn_starts)
                     : 0.0;
    append_fmt(out, ",\"commit_rate\":%.6f,\"abort_ratio\":%.6f",
               dur_s > 0.0 ? static_cast<double>(w.commits) / dur_s : 0.0,
               abort_ratio);
  }
  out += "},";

  const MetricsGauges& g = w.gauges;
  append_fmt(out,
             "\"gauges\":{\"inflight_txns\":%u,\"limbo_pending\":%llu,"
             "\"watchdog_escalations\":%llu",
             g.inflight_txns, (unsigned long long)g.limbo_pending,
             (unsigned long long)g.watchdog_escalations);
  if (!w.deterministic)
    append_fmt(out,
               ",\"oldest_txn_age_ns\":%llu,\"grace_last_scan_ns\":%llu,"
               "\"grace_scan_ns\":%llu,\"serial_hold_ns\":%llu,"
               "\"serial_wait_ns\":%llu,\"serial_held_age_ns\":%llu",
               (unsigned long long)g.oldest_txn_age_ns,
               (unsigned long long)g.grace_last_scan_ns,
               (unsigned long long)g.grace_scan_ns,
               (unsigned long long)g.serial_hold_ns,
               (unsigned long long)g.serial_wait_ns,
               (unsigned long long)g.serial_held_age_ns);
  out += "},";

  // Ranked starvation surface: sites that have EVER hit the watchdog or
  // waited out a serial window (cumulative counters), capped at the 8 worst.
  out += "\"starved_sites\":[";
  {
    std::vector<const SiteWindow*> starved;
    for (const SiteWindow& s : w.sites)
      if (s.total_watchdog || s.total_drains) starved.push_back(&s);
    std::sort(starved.begin(), starved.end(),
              [](const SiteWindow* a, const SiteWindow* b) {
                if (a->total_watchdog != b->total_watchdog)
                  return a->total_watchdog > b->total_watchdog;
                if (a->total_drains != b->total_drains)
                  return a->total_drains > b->total_drains;
                return a->id < b->id;
              });
    if (starved.size() > 8) starved.resize(8);
    for (std::size_t i = 0; i < starved.size(); ++i) {
      const SiteWindow& s = *starved[i];
      if (i) out += ',';
      append_fmt(out,
                 "{\"id\":%d,\"name\":\"%s\",\"watchdog_total\":%llu,"
                 "\"drain_total\":%llu}",
                 s.id, json_escape(s.name).c_str(),
                 (unsigned long long)s.total_watchdog,
                 (unsigned long long)s.total_drains);
    }
  }
  out += "],";

  out += "\"sites\":[";
  for (std::size_t i = 0; i < w.sites.size(); ++i) {
    const SiteWindow& s = w.sites[i];
    if (i) out += ',';
    append_fmt(out,
               "{\"id\":%d,\"name\":\"%s\",\"attempts\":%llu,"
               "\"commits\":%llu,\"serial_fallbacks\":%llu,"
               "\"serial_commits\":%llu,\"htm_retries\":%llu,"
               "\"drain_waits\":%llu,\"watchdog_escalations\":%llu",
               s.id, json_escape(s.name).c_str(),
               (unsigned long long)s.attempts, (unsigned long long)s.commits,
               (unsigned long long)s.serial_fallbacks,
               (unsigned long long)s.serial_commits,
               (unsigned long long)s.htm_retries,
               (unsigned long long)s.drain_waits,
               (unsigned long long)s.watchdog_escalations);
    out += ",\"aborts\":{";
    bool first = true;
    for (int a = 1; a < kAbortCauseCount; ++a) {
      if (!s.aborts[a]) continue;
      append_fmt(out, "%s\"%s\":%llu", first ? "" : ",",
                 to_string(static_cast<AbortCause>(a)),
                 (unsigned long long)s.aborts[a]);
      first = false;
    }
    append_fmt(out, "},\"aborts_total\":%llu,\"total_commits\":%llu",
               (unsigned long long)s.aborts_total(),
               (unsigned long long)s.total_commits);
    if (!w.deterministic) {
      const double cr = dur_s > 0.0
                            ? static_cast<double>(s.commits) / dur_s
                            : 0.0;
      const double ar = s.attempts ? static_cast<double>(s.aborts_total()) /
                                         static_cast<double>(s.attempts)
                                   : 0.0;
      const double fr = s.attempts
                            ? static_cast<double>(s.serial_fallbacks) /
                                  static_cast<double>(s.attempts)
                            : 0.0;
      append_fmt(out,
                 ",\"commit_rate\":%.6f,\"abort_ratio\":%.6f,"
                 "\"fallback_ratio\":%.6f,\"p50_ns\":%llu,\"p99_ns\":%llu,"
                 "\"p999_ns\":%llu",
                 cr, ar, fr, (unsigned long long)s.p50_ns,
                 (unsigned long long)s.p99_ns, (unsigned long long)s.p999_ns);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string prometheus_text() {
  const StatsSnapshot snap = aggregate_stats();
  const std::vector<SiteProfile> profiles = collect_site_profiles();
  std::string out;
  snap.for_each_counter(
      [&](const char* name, std::uint64_t v, const char* desc) {
        append_fmt(out,
                   "# HELP tle_%s_total %s.\n# TYPE tle_%s_total counter\n"
                   "tle_%s_total %llu\n",
                   name, desc, name, name, (unsigned long long)v);
      });
  out +=
      "# HELP tle_aborts_total Speculative aborts by cause.\n"
      "# TYPE tle_aborts_total counter\n";
  for (int a = 1; a < kAbortCauseCount; ++a)
    append_fmt(out, "tle_aborts_total{cause=\"%s\"} %llu\n",
               to_string(static_cast<AbortCause>(a)),
               (unsigned long long)snap.aborts[a]);
  out +=
      "# HELP tle_site_commits_total Speculative commits per site.\n"
      "# TYPE tle_site_commits_total counter\n";
  for (const SiteProfile& p : profiles)
    append_fmt(out, "tle_site_commits_total{site=\"%s\"} %llu\n",
               json_escape(p.info.name).c_str(),
               (unsigned long long)p.commits);
  out +=
      "# HELP tle_site_aborts_total Speculative aborts per site.\n"
      "# TYPE tle_site_aborts_total counter\n";
  for (const SiteProfile& p : profiles)
    append_fmt(out, "tle_site_aborts_total{site=\"%s\"} %llu\n",
               json_escape(p.info.name).c_str(),
               (unsigned long long)p.aborts_total());

  // Live gauges (same sampling as a window's gauge block).
  State& st = state();
  MetricsWindow w;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (!st.baselined) rebaseline_locked(st);
    fill_gauges(st, w, /*det=*/false);
  }
  auto gauge = [&](const char* name, const char* help,
                   unsigned long long v) {
    append_fmt(out, "# HELP %s %s\n# TYPE %s gauge\n%s %llu\n", name, help,
               name, name, v);
  };
  gauge("tle_inflight_txns", "Slots currently inside a transaction.",
        w.gauges.inflight_txns);
  gauge("tle_oldest_txn_age_ns", "Age of the oldest in-flight transaction.",
        w.gauges.oldest_txn_age_ns);
  gauge("tle_limbo_pending", "Deferred frees awaiting a grace period.",
        w.gauges.limbo_pending);
  gauge("tle_grace_last_scan_ns", "Duration of the latest grace scan pass.",
        w.gauges.grace_last_scan_ns);
  gauge("tle_serial_hold_ns_total", "Cumulative serial write-lock hold time.",
        serial_lock().write_hold_ns_total());
  gauge("tle_serial_wait_ns_total", "Cumulative serial write-lock wait time.",
        serial_lock().write_wait_ns_total());
  return out;
}

}  // namespace tle::obs
