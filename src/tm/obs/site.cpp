#include "tm/obs/site.hpp"

#include "tm/obs/export.hpp"
#include "tm/registry.hpp"

namespace tle::obs {

namespace {
// Static-init activation: the engine references this translation unit
// (g_flags / site_counters), so this runs in every binary that links the
// TM core — which in turn pulls in export.cpp and arms the atexit dump
// when the TLE_* env vars ask for it.
struct EnvInit {
  EnvInit() noexcept { init_from_env(); }
} g_env_init;
}  // namespace

namespace detail {
std::atomic<std::uint32_t> g_flags{0};
}

void set_flag(std::uint32_t bit, bool on) noexcept {
  if (on)
    detail::g_flags.fetch_or(bit, std::memory_order_release);
  else
    detail::g_flags.fetch_and(~bit, std::memory_order_release);
}

namespace {

// Registration publishes each field individually (a site registers once,
// from whichever thread first executes it, possibly while an aggregator is
// already walking the registry).
struct SiteSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> file{nullptr};
  std::atomic<int> line{0};
};

SiteSlot g_sites[kMaxSites];
std::atomic<int> g_site_count{1};  // id 0 reserved for "(unnamed)"
std::atomic<std::uint64_t> g_site_overflow{0};

std::atomic<SiteCounters*> g_tables[kMaxThreads] = {};

}  // namespace

TxSite::TxSite(const char* name, const char* file, int line) noexcept {
  const int i = g_site_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSites) {
    // Registry full: fold into the unnamed bucket (and pin the counter so
    // site_count() stays clamped without a saturating CAS loop).
    g_site_count.store(kMaxSites, std::memory_order_relaxed);
    g_site_overflow.fetch_add(1, std::memory_order_relaxed);
    id = 0;
    return;
  }
  g_sites[i].file.store(file, std::memory_order_relaxed);
  g_sites[i].line.store(line, std::memory_order_relaxed);
  g_sites[i].name.store(name, std::memory_order_release);
  id = static_cast<std::uint16_t>(i);
}

int site_count() noexcept {
  const int n = g_site_count.load(std::memory_order_acquire);
  return n < kMaxSites ? n : kMaxSites;
}

std::uint64_t site_overflow_count() noexcept {
  return g_site_overflow.load(std::memory_order_relaxed);
}

SiteInfo site_info(int id) noexcept {
  if (id <= 0 || id >= kMaxSites) return {"(unnamed)", "", 0};
  const char* name = g_sites[id].name.load(std::memory_order_acquire);
  if (!name) return {"(registering)", "", 0};
  return {name, g_sites[id].file.load(std::memory_order_relaxed),
          g_sites[id].line.load(std::memory_order_relaxed)};
}

SiteCounters* thread_site_table(int slot) noexcept {
  SiteCounters* t = g_tables[slot].load(std::memory_order_acquire);
  if (t) return t;
  // First profiled event on this slot: allocate. value-init zeroes the
  // atomics (C++20). Lost races free their copy.
  auto* fresh = new SiteCounters[kMaxSites]();
  SiteCounters* expected = nullptr;
  if (g_tables[slot].compare_exchange_strong(expected, fresh,
                                             std::memory_order_acq_rel))
    return fresh;
  delete[] fresh;
  return expected;
}

SiteCounters* peek_site_table(int slot) noexcept {
  return g_tables[slot].load(std::memory_order_acquire);
}

void reset_site_profiles() noexcept {
  for (int s = 0; s < kMaxThreads; ++s)
    if (SiteCounters* t = g_tables[s].load(std::memory_order_acquire))
      for (int i = 0; i < kMaxSites; ++i) t[i].reset();
}

}  // namespace tle::obs
