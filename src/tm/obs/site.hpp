// Per-site transaction profiling: static TxSite descriptors registered at
// lock-elision entry points, per-thread × per-site counters generated from
// the S rows of TLE_COUNTERS (stats.hpp), the count() helper every counted
// event goes through, and the shared observability flag word.
//
// Cost model: when nothing is enabled the engine pays exactly one relaxed
// load of the flag word per event site (obs::flags(), which also gates the
// flight recorder — tracing and profiling share the word). When profiling is
// on, counter bumps are owner_add()s (stats.hpp: one writer per counter, a
// relaxed load and store) into a lazily allocated per-slot table, so the hot
// path has no locked instruction and no cross-thread contention;
// aggregation (export.hpp) reads the tables concurrently.
#pragma once

#include <atomic>
#include <cstdint>

#include "tm/config.hpp"
#include "tm/obs/histogram.hpp"
#include "tm/stats.hpp"
#include "tm/txdesc.hpp"

namespace tle::obs {

/// Capacity of the static site registry. Id 0 is reserved for "(unnamed)"
/// top-level sections (and absorbs registrations past the cap).
inline constexpr int kMaxSites = 128;

// ---------------------------------------------------------------------------
// Shared observability flags (one word gates both subsystems)
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kTraceBit = 1u;    ///< flight recorder on
inline constexpr std::uint32_t kProfileBit = 2u;  ///< per-site profiling on
inline constexpr std::uint32_t kMetricsBit = 4u;  ///< interval metrics on

namespace detail {
extern std::atomic<std::uint32_t> g_flags;
}

/// The one relaxed load every engine event site pays when idle.
inline std::uint32_t flags() noexcept {
  return detail::g_flags.load(std::memory_order_relaxed);
}

inline bool profiling_enabled() noexcept { return flags() & kProfileBit; }

void set_flag(std::uint32_t bit, bool on) noexcept;

/// Turn per-site profiling on/off (trace::enable drives the other bit).
inline void profile_enable(bool on) noexcept { set_flag(kProfileBit, on); }

// ---------------------------------------------------------------------------
// Site registry
// ---------------------------------------------------------------------------

/// A named lock-elision entry point. Construct through TLE_TX_SITE so each
/// lexical site registers exactly once (function-local static) and carries
/// its file:line provenance.
struct TxSite {
  std::uint16_t id;
  TxSite(const char* name, const char* file, int line) noexcept;
};

struct SiteInfo {
  const char* name;
  const char* file;
  int line;
};

/// Number of registered sites including the reserved id 0.
int site_count() noexcept;

/// Registrations that arrived after the registry filled and were folded
/// into id 0. Surfaces in aggregate_stats() as obs_site_overflow and as a
/// warning line in StatsSnapshot::report(); never reset (the registry stays
/// full for the life of the process).
std::uint64_t site_overflow_count() noexcept;

/// Descriptor for a registered site id (valid for 0 <= id < site_count()).
SiteInfo site_info(int id) noexcept;

// ---------------------------------------------------------------------------
// Per-thread × per-site counters
// ---------------------------------------------------------------------------

/// Every S row has its own key position inside the site row.
constexpr bool site_positions_valid() noexcept {
  bool seen[kSiteCounterCount] = {};
#define TLE_SITE_POS(name, site, pos, desc)              \
  if (pos < 0 || pos >= kSiteCounterCount || seen[pos]) \
    return false;                                        \
  seen[pos] = true;
  TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_POS)
#undef TLE_SITE_POS
  return true;
}
static_assert(site_positions_valid(),
              "TLE_COUNTERS site positions must be 0..kSiteCounterCount-1, "
              "each used once");

/// One thread's counters for one site: a generated member per S row of
/// TLE_COUNTERS, named by its `site` column.
struct SiteCounters {
  using Counter = std::atomic<std::uint64_t>;

#define TLE_SITE_DECL(name, site, ...) Counter site{0};
  TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_DECL)
#undef TLE_SITE_DECL

  Counter aborts[kAbortCauseCount] = {};

  LatencyHist attempt_ns;  ///< duration of each attempt (commit or abort)
  LatencyHist quiesce_ns;  ///< commit-to-quiesce-completion time

  /// The member for each counter, indexed by Ctr; nullptr for a G row.
  static constexpr Counter SiteCounters::* kMembers[] = {
#define TLE_SITE_NONE(...) nullptr,
#define TLE_SITE_MEMBER(name, site, ...) &SiteCounters::site,
      TLE_COUNTERS(TLE_SITE_NONE, TLE_SITE_MEMBER)
#undef TLE_SITE_NONE
#undef TLE_SITE_MEMBER
  };

  /// The member for `c`, which must have a site row.
  Counter& at(Ctr c) noexcept { return this->*kMembers[static_cast<int>(c)]; }

  void reset() noexcept {
    auto zero = [](Counter& c) { c.store(0, std::memory_order_relaxed); };
#define TLE_SITE_ZERO(name, site, ...) zero(site);
    TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_ZERO)
#undef TLE_SITE_ZERO
    for (auto& a : aborts) zero(a);
    for (auto& b : attempt_ns.buckets) zero(b);
    for (auto& b : quiesce_ns.buckets) zero(b);
  }
};

/// True for the counters with a per-site row (the table's S rows).
constexpr bool has_site_row(Ctr c) noexcept {
  return SiteCounters::kMembers[static_cast<int>(c)] != nullptr;
}

/// Plain values of site rows: a sum over threads (SiteProfile) or the
/// change between two sums (SiteWindow). Same members as SiteCounters.
struct SiteTotals {
#define TLE_SITE_DECL(name, site, ...) std::uint64_t site = 0;
  TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_DECL)
#undef TLE_SITE_DECL

  std::uint64_t aborts[kAbortCauseCount] = {};

  std::uint64_t aborts_total() const noexcept {
    std::uint64_t t = 0;
    for (auto a : aborts) t += a;
    return t;
  }

  /// Add one thread's row (relaxed loads: its owner may still be counting).
  void add(const SiteCounters& c) noexcept {
#define TLE_SITE_ADD(name, site, ...) \
  site += c.site.load(std::memory_order_relaxed);
    TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_ADD)
#undef TLE_SITE_ADD
    for (int a = 0; a < kAbortCauseCount; ++a)
      aborts[a] += c.aborts[a].load(std::memory_order_relaxed);
  }

  /// True while every counter, aborts included, is zero.
  bool idle() const noexcept {
    bool idle = aborts_total() == 0;
    for_each_counter([&](const char*, std::uint64_t v) { idle &= v == 0; });
    return idle;
  }

  /// Visit every site-row counter as f(key, value) in tle-obs/v1 key order
  /// (the table's `pos` column); the abort array is not included.
  template <typename F>
  void for_each_counter(F&& f) const {
    const char* key[kSiteCounterCount];
    std::uint64_t value[kSiteCounterCount];
#define TLE_SITE_KEY(name, site, pos, desc) key[pos] = #site, value[pos] = site;
    TLE_COUNTERS(TLE_COUNTER_SKIP, TLE_SITE_KEY)
#undef TLE_SITE_KEY
    for (int i = 0; i < kSiteCounterCount; ++i) f(key[i], value[i]);
  }
};

/// The calling slot's site-counter table, allocated on first use (never
/// freed: slots are recycled across threads, like ThreadSlot::stats).
SiteCounters* thread_site_table(int slot) noexcept;

/// Table for `slot` if it has one, else nullptr (aggregation-side accessor).
SiteCounters* peek_site_table(int slot) noexcept;

inline SiteCounters& site_counters(int slot, std::uint16_t site) noexcept {
  return thread_site_table(slot)[site < kMaxSites ? site : 0];
}

/// Zero every allocated table (benchmark harnesses). Same contract as
/// reset_stats(): no thread may count while it runs, since an owner_add()
/// racing the reset can write back its pre-reset value.
void reset_site_profiles() noexcept;

}  // namespace tle::obs

namespace tle {

/// Count `n` events of `c` for the transaction's thread: its TxStats row
/// and, while per-site profiling is on and `c` has a site row, the row of
/// the current TLE_TX_SITE, so site sums equal thread totals by
/// construction. `ob` is the obs::flags() word the event site already
/// loaded; without it the word is loaded for site-row counters only.
inline void count(TxDesc& tx, Ctr c, std::uint64_t n,
                  std::uint32_t ob) noexcept {
  owner_add(tx.stats->at(c), n);
  if (obs::has_site_row(c) && (ob & obs::kProfileBit))
    owner_add(obs::site_counters(tx.slot_id, tx.site).at(c), n);
}

inline void count(TxDesc& tx, Ctr c, std::uint64_t n = 1) noexcept {
  count(tx, c, n, obs::has_site_row(c) ? obs::flags() : 0u);
}

/// count() for one speculative abort of cause `cause`.
inline void count(TxDesc& tx, AbortCause cause, std::uint32_t ob) noexcept {
  const int i = static_cast<int>(cause);
  owner_add(tx.stats->aborts[i]);
  if (ob & obs::kProfileBit)
    owner_add(obs::site_counters(tx.slot_id, tx.site).aborts[i]);
}

}  // namespace tle

/// Expands to a reference to this lexical site's registered descriptor.
/// Usage: tle::critical(m, TLE_TX_SITE("videnc/claim_row"), [&](auto& tx) ...)
#define TLE_TX_SITE(name_literal)                              \
  ([]() noexcept -> const ::tle::obs::TxSite& {                \
    static const ::tle::obs::TxSite tle_site_{                 \
        name_literal, __FILE__, __LINE__};                     \
    return tle_site_;                                          \
  }())
