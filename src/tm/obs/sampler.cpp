// Background metrics sampler: one thread that ticks the window engine every
// config().metrics_period_ms and streams each window to the configured
// sinks (JSONL append + atomic Prometheus-file rewrite).
//
// Shutdown ordering: init_metrics_from_env() is called by
// obs::init_from_env() AFTER the tle-obs atexit dump is registered, so this
// unit's atexit handler runs FIRST (LIFO) — the sampler joins and the
// residual final window reaches the sinks before the lifetime dump is
// written, which is what makes per-site window deltas sum exactly to the
// dumped totals.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "tm/obs/export.hpp"
#include "tm/obs/metrics.hpp"
#include "util/timing.hpp"

namespace tle::obs {

namespace {

struct Sampler {
  std::mutex mu;           // guards thread start/stop and the sinks
  std::thread th;
  std::atomic<bool> run{false};
  std::atomic<bool> running{false};
  std::FILE* jsonl = nullptr;  // owned unless it is stderr
  bool jsonl_is_stderr = false;
  std::string prom_path;
};

// Heap-allocated and never destroyed: the atexit shutdown below must not
// race static destruction of this state.
Sampler& sampler() {
  static Sampler* s = new Sampler();
  return *s;
}

void close_jsonl(Sampler& s) {
  if (s.jsonl && !s.jsonl_is_stderr) std::fclose(s.jsonl);
  s.jsonl = nullptr;
  s.jsonl_is_stderr = false;
}

/// Write one window to the sinks. Caller holds s.mu.
void emit_locked(Sampler& s, const MetricsWindow& w) {
  if (s.jsonl) {
    const std::string line = metrics_json(w) + "\n";
    std::fwrite(line.data(), 1, line.size(), s.jsonl);
    std::fflush(s.jsonl);
  }
  if (!s.prom_path.empty()) {
    // Atomic rewrite: scrapers never observe a torn exposition.
    const std::string tmp = s.prom_path + ".tmp";
    if (write_text_file(tmp, prometheus_text()))
      std::rename(tmp.c_str(), s.prom_path.c_str());
  }
}

void sampler_loop() {
  Sampler& s = sampler();
  while (s.run.load(std::memory_order_acquire)) {
    // Sleep the period in 10 ms slices so metrics_stop() never waits a full
    // window for the join.
    const std::uint64_t period_ms = std::max(1u, config().metrics_period_ms);
    const std::uint64_t deadline = now_ns() + period_ms * 1'000'000ull;
    while (s.run.load(std::memory_order_acquire) && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(10, period_ms)));
    if (!s.run.load(std::memory_order_acquire)) break;
    const MetricsWindow w = metrics_tick();
    std::lock_guard<std::mutex> lk(s.mu);
    emit_locked(s, w);
  }
}

void metrics_atexit() { metrics_stop(); }

}  // namespace

void metrics_set_sinks(const std::string& jsonl_path,
                       const std::string& prom_path) {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  close_jsonl(s);
  if (!jsonl_path.empty()) {
    if (jsonl_path == "-") {
      s.jsonl = stderr;
      s.jsonl_is_stderr = true;
    } else {
      s.jsonl = std::fopen(jsonl_path.c_str(), "w");
      if (!s.jsonl)
        std::fprintf(stderr, "tle-metrics: cannot write %s\n",
                     jsonl_path.c_str());
    }
  }
  s.prom_path = prom_path;
}

void metrics_start() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.running.load(std::memory_order_relaxed)) return;
  if (!metrics_enabled()) metrics_enable(true);
  s.run.store(true, std::memory_order_release);
  s.th = std::thread(sampler_loop);
  s.running.store(true, std::memory_order_release);
}

void metrics_stop() {
  Sampler& s = sampler();
  // Join outside the sink mutex: the loop's emit step takes s.mu, so
  // holding it across the join would deadlock the shutdown.
  std::thread th;
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    was_running = s.running.load(std::memory_order_relaxed);
    if (was_running) {
      s.run.store(false, std::memory_order_release);
      th = std::move(s.th);
      s.running.store(false, std::memory_order_release);
    }
  }
  if (th.joinable()) th.join();
  std::lock_guard<std::mutex> lk(s.mu);
  // Residual window: whatever accumulated since the last periodic tick.
  if (was_running) emit_locked(s, metrics_tick_final());
  close_jsonl(s);
}

bool metrics_sampler_running() noexcept {
  return sampler().running.load(std::memory_order_acquire);
}

void init_metrics_from_env() noexcept {
  static std::atomic<bool> inited{false};
  if (inited.exchange(true)) return;
  const char* out = std::getenv("TLE_METRICS_OUT");
  const char* prom = std::getenv("TLE_METRICS_PROM");
  const char* period = std::getenv("TLE_METRICS_PERIOD_MS");
  const char* history = std::getenv("TLE_METRICS_HISTORY");
  if (period && *period) {
    const long v = std::strtol(period, nullptr, 10);
    if (v >= 1) config().metrics_period_ms = static_cast<unsigned>(v);
  }
  if (history && *history) {
    const long v = std::strtol(history, nullptr, 10);
    if (v >= 1) config().metrics_history = static_cast<unsigned>(v);
  }
  const bool want_out = out && *out;
  const bool want_prom = prom && *prom;
  if (!want_out && !want_prom) return;
  metrics_set_sinks(want_out ? out : "", want_prom ? prom : "");
  std::atexit(metrics_atexit);
  metrics_start();
}

}  // namespace tle::obs
