#include "tm/obs/export.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tm/governor/governor.hpp"
#include "tm/obs/metrics.hpp"
#include "tm/registry.hpp"
#include "tm/stats.hpp"

namespace tle::gov {

std::string starvation_report() {
  return obs::starvation_table(obs::collect_site_profiles());
}

}  // namespace tle::gov

namespace tle::obs {

namespace {

std::uint64_t ld(const std::atomic<std::uint64_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

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

void append_hist_json(std::string& out, const char* key,
                      const std::uint64_t* h) {
  append_fmt(out, "\"%s\":[", key);
  bool first = true;
  for (int b = 0; b < LatencyHist::kBuckets; ++b) {
    if (!h[b]) continue;
    append_fmt(out, "%s[%llu,%llu]", first ? "" : ",",
               (unsigned long long)LatencyHist::bucket_floor(b),
               (unsigned long long)h[b]);
    first = false;
  }
  out += ']';
}

/// `"aborts":{"<cause>":n,...},"aborts_total":total` for a per-cause array.
void append_aborts_json(std::string& out, const std::uint64_t* aborts,
                        std::uint64_t total) {
  out += "\"aborts\":{";
  for (int a = 1; a < kAbortCauseCount; ++a)
    append_fmt(out, "%s\"%s\":%llu", a == 1 ? "" : ",",
               to_string(static_cast<AbortCause>(a)),
               (unsigned long long)aborts[a]);
  append_fmt(out, "},\"aborts_total\":%llu", (unsigned long long)total);
}

}  // namespace

std::vector<SiteProfile> collect_site_profiles() {
  std::vector<SiteProfile> out;
  const int sites = site_count();
  const int hw = slot_high_water();
  for (int id = 0; id < sites; ++id) {
    SiteProfile p;
    p.id = id;
    p.info = id == 0 ? SiteInfo{"(unnamed)", "", 0} : site_info(id);
    for (int s = 0; s < hw; ++s) {
      const SiteCounters* t = peek_site_table(s);
      if (!t) continue;
      const SiteCounters& c = t[id];
      p.add(c);
      for (int b = 0; b < LatencyHist::kBuckets; ++b) {
        p.attempt_hist[b] += ld(c.attempt_ns.buckets[b]);
        p.quiesce_hist[b] += ld(c.quiesce_ns.buckets[b]);
      }
    }
    if (!p.idle()) out.push_back(p);
  }
  return out;
}

std::string site_table(const std::vector<SiteProfile>& profiles) {
  std::vector<SiteProfile> ranked = profiles;
  std::sort(ranked.begin(), ranked.end(),
            [](const SiteProfile& a, const SiteProfile& b) {
              if (a.aborts_total() != b.aborts_total())
                return a.aborts_total() > b.aborts_total();
              return a.attempts > b.attempts;
            });
  std::string out;
  out +=
      "== per-site transaction profile (ranked by aborts) ==\n"
      "site                           attempts    commits     aborts  abrt% "
      " conflct validat capacty  serial  p50us  p99us\n";
  for (const SiteProfile& p : ranked) {
    const double rate =
        p.attempts ? 100.0 * static_cast<double>(p.aborts_total()) /
                         static_cast<double>(p.attempts)
                   : 0.0;
    append_fmt(
        out,
        "%-28.28s %10llu %10llu %10llu %6.2f %8llu %7llu %7llu %7llu %6.1f "
        "%6.1f\n",
        p.info.name, (unsigned long long)p.attempts,
        (unsigned long long)p.commits, (unsigned long long)p.aborts_total(),
        rate,
        (unsigned long long)p.aborts[static_cast<int>(AbortCause::Conflict)],
        (unsigned long long)p.aborts[static_cast<int>(AbortCause::Validation)],
        (unsigned long long)p.aborts[static_cast<int>(AbortCause::Capacity)],
        (unsigned long long)(p.serial_fallbacks + p.serial_commits),
        percentile_from_buckets(p.attempt_hist, 0.50) / 1e3,
        percentile_from_buckets(p.attempt_hist, 0.99) / 1e3);
  }
  return out;
}

std::string starvation_table(const std::vector<SiteProfile>& profiles) {
  std::vector<SiteProfile> starved;
  for (const SiteProfile& p : profiles)
    if (p.watchdog_escalations || p.drain_waits) starved.push_back(p);
  if (starved.empty()) return "";
  std::sort(starved.begin(), starved.end(),
            [](const SiteProfile& a, const SiteProfile& b) {
              if (a.watchdog_escalations != b.watchdog_escalations)
                return a.watchdog_escalations > b.watchdog_escalations;
              return a.drain_waits > b.drain_waits;
            });
  std::string out;
  out +=
      "== governor starvation report (ranked by watchdog escalations) ==\n"
      "site                           watchdog  drains    attempts  "
      "serial\n";
  for (const SiteProfile& p : starved)
    append_fmt(out, "%-28.28s %9llu %7llu %11llu %7llu\n",
               p.info.name, (unsigned long long)p.watchdog_escalations,
               (unsigned long long)p.drain_waits,
               (unsigned long long)p.attempts,
               (unsigned long long)(p.serial_fallbacks + p.serial_commits));
  return out;
}

std::string obs_json() {
  const StatsSnapshot snap = aggregate_stats();
  const std::vector<SiteProfile> profiles = collect_site_profiles();
  std::string out;
  out += "{\"schema\":\"tle-obs/v1\",";
  append_fmt(out, "\"mode\":\"%s\",", to_string(config().mode));

  out += "\"stats\":{";
  bool first = true;
  snap.for_each_counter([&](const char* name, std::uint64_t v, const char*) {
    append_fmt(out, "%s\"%s\":%llu", first ? "" : ",", name,
               (unsigned long long)v);
    first = false;
  });
  out += ',';
  append_aborts_json(out, snap.aborts, snap.aborts_total());
  out += "},";

  out += "\"sites\":[";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const SiteProfile& p = profiles[i];
    if (i) out += ',';
    append_fmt(out, "{\"id\":%d,\"name\":\"%s\",\"file\":\"%s\",\"line\":%d,",
               p.id, json_escape(p.info.name).c_str(),
               json_escape(p.info.file).c_str(), p.info.line);
    p.for_each_counter([&](const char* key, std::uint64_t v) {
      append_fmt(out, "\"%s\":%llu,", key, (unsigned long long)v);
    });
    append_aborts_json(out, p.aborts, p.aborts_total());
    out += ',';
    append_hist_json(out, "attempt_ns_hist", p.attempt_hist);
    out += ',';
    append_hist_json(out, "quiesce_ns_hist", p.quiesce_hist);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string chrome_trace_json(const std::vector<trace::Record>& records) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };

  bool slot_seen[kMaxThreads] = {};
  for (const trace::Record& r : records) {
    if (r.slot < kMaxThreads && !slot_seen[r.slot]) {
      slot_seen[r.slot] = true;
      sep();
      append_fmt(out,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"slot %u\"}}",
                 r.slot, r.slot);
    }
    const char* site_name = r.site ? site_info(r.site).name : "(unnamed)";
    const double ts_us = static_cast<double>(r.ts_ns - r.dur_ns) / 1e3;
    const double dur_us = static_cast<double>(r.dur_ns) / 1e3;
    switch (r.event) {
      case trace::Event::Commit:
        sep();
        append_fmt(out,
                   "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"commit\","
                   "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"retry\":%u,\"rset\":%u,\"wset\":%u}}",
                   r.slot, json_escape(site_name).c_str(), ts_us, dur_us,
                   r.retry, r.rset, r.wset);
        break;
      case trace::Event::Abort:
        sep();
        append_fmt(out,
                   "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"abort\","
                   "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"cause\":\"%s\",\"retry\":%u,\"rset\":%u,"
                   "\"wset\":%u}}",
                   r.slot, json_escape(site_name).c_str(), ts_us, dur_us,
                   to_string(r.cause), r.retry, r.rset, r.wset);
        sep();
        append_fmt(out,
                   "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"s\":\"t\","
                   "\"cat\":\"abort\",\"name\":\"abort:%s\",\"ts\":%.3f}",
                   r.slot, to_string(r.cause),
                   static_cast<double>(r.ts_ns) / 1e3);
        break;
      case trace::Event::SerialExit:
        sep();
        append_fmt(out,
                   "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"serial\","
                   "\"name\":\"%s [serial]\",\"ts\":%.3f,\"dur\":%.3f}",
                   r.slot, json_escape(site_name).c_str(), ts_us, dur_us);
        break;
      case trace::Event::Quiesce:
        sep();
        append_fmt(out,
                   "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"quiesce\","
                   "\"name\":\"quiesce\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"site\":\"%s\"}}",
                   r.slot, ts_us, dur_us, json_escape(site_name).c_str());
        break;
      case trace::Event::WatchdogEscalate:
        sep();
        if (r.dur_ns) {
          // Stall detection: the record carries the measured wait.
          append_fmt(out,
                     "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"governor\","
                     "\"name\":\"stall\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"site\":\"%s\",\"cause\":\"%s\"}}",
                     r.slot, ts_us, dur_us, json_escape(site_name).c_str(),
                     to_string(r.cause));
        } else {
          append_fmt(out,
                     "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"s\":\"t\","
                     "\"cat\":\"governor\",\"name\":\"watchdog:%s\","
                     "\"ts\":%.3f,\"args\":{\"attempts\":%u}}",
                     r.slot, json_escape(site_name).c_str(),
                     static_cast<double>(r.ts_ns) / 1e3, r.retry);
        }
        break;
      case trace::Event::StripeRevalidate:
        sep();
        append_fmt(out,
                   "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"s\":\"t\","
                   "\"cat\":\"htm\",\"name\":\"stripe-revalidate\","
                   "\"ts\":%.3f,\"args\":{\"site\":\"%s\",\"stripe\":%u}}",
                   r.slot, static_cast<double>(r.ts_ns) / 1e3,
                   json_escape(site_name).c_str(), r.rset);
        break;
      case trace::Event::Begin:
      case trace::Event::SerialEnter:
        // Interval starts: already represented by the closing event's dur.
        break;
    }
  }
  out += "]}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& body) {
  if (path.empty() || path == "-") {
    std::fwrite(body.data(), 1, body.size(), stderr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Env-var activation + atexit dump
// ---------------------------------------------------------------------------

namespace {

// constinit + pointer fields: init_from_env() is invoked from another
// translation unit's static initializer (site.cpp), so this state must be
// constant-initialized — a dynamic initializer here could run *afterwards*
// and silently wipe the parsed settings. getenv() pointers stay valid for
// the process lifetime, so storing them raw is safe.
struct EnvSettings {
  bool stats = false;
  bool trace = false;
  const char* stats_path = nullptr;  // null/empty: table+report to stderr only
  const char* trace_path = nullptr;
};
constinit EnvSettings g_env;
constinit std::atomic<bool> g_env_inited{false};

bool flag_only(const char* v) noexcept {
  return !std::strcmp(v, "1") || !std::strcmp(v, "true") ||
         !std::strcmp(v, "yes") || !std::strcmp(v, "on");
}

bool flag_off(const char* v) noexcept {
  return !*v || !std::strcmp(v, "0") || !std::strcmp(v, "false") ||
         !std::strcmp(v, "no") || !std::strcmp(v, "off");
}

}  // namespace

void dump_now() {
  if (g_env.stats) {
    const std::vector<SiteProfile> profiles = collect_site_profiles();
    std::fputs(site_table(profiles).c_str(), stderr);
    const std::string starved = starvation_table(profiles);
    if (!starved.empty()) std::fputs(starved.c_str(), stderr);
    std::fputs(aggregate_stats().report().c_str(), stderr);
    if (g_env.stats_path && *g_env.stats_path &&
        !write_text_file(g_env.stats_path, obs_json()))
      std::fprintf(stderr, "tle-obs: cannot write %s\n", g_env.stats_path);
  }
  if (g_env.trace) {
    const std::string path = g_env.trace_path && *g_env.trace_path
                                 ? g_env.trace_path
                                 : "tle_trace.json";
    if (!write_text_file(path, chrome_trace_json(trace::snapshot())))
      std::fprintf(stderr, "tle-obs: cannot write %s\n", path.c_str());
  }
}

void init_from_env() noexcept {
  if (g_env_inited.exchange(true)) return;
  const char* sd = std::getenv("TLE_STATS_DUMP");
  const char* tr = std::getenv("TLE_TRACE");
  const char* to = std::getenv("TLE_TRACE_OUT");
  if (sd && !flag_off(sd)) {
    g_env.stats = true;
    if (!flag_only(sd)) g_env.stats_path = sd;
  }
  if ((tr && !flag_off(tr)) || (to && *to)) {
    g_env.trace = true;
    if (to && *to) g_env.trace_path = to;
  }
  if (g_env.stats) profile_enable(true);
  if (g_env.trace) trace::enable(true);
  if (g_env.stats || g_env.trace) std::atexit(dump_now);
  // After the dump registration so the metrics shutdown atexit (registered
  // inside, LIFO) stops the sampler and flushes the residual window BEFORE
  // the lifetime dump — window deltas then sum to the dumped totals exactly.
  init_metrics_from_env();
}

}  // namespace tle::obs
