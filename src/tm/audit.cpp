#include "tm/audit.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "tm/txdesc.hpp"

namespace tle::audit {

namespace {

std::atomic<bool> g_enabled{false};

struct HazardState {
  // Epoch snapshot taken at the unquiesced commit; owner-thread access only.
  std::uint64_t snapshot[kMaxThreads] = {};
  // Sample of the unquiesced transaction's written cells: only accesses to
  // these addresses (or a full sample overflow) are hazardous.
  static constexpr int kMaxWrites = 64;
  const void* writes[kMaxWrites] = {};
  int nwrites = 0;
  bool writes_overflowed = false;
  bool armed = false;
  // TLE_TX_SITE of the commit that armed the hazard, so a finding names
  // the offending section instead of just the thread.
  std::uint16_t site = 0;
};

HazardState g_hazard[kMaxThreads];

std::mutex g_report_mutex;
Report g_report;

constexpr std::size_t kMaxSamples = 8;

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_release); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Report report() {
  std::lock_guard<std::mutex> g(g_report_mutex);
  return g_report;
}

void reset() {
  std::lock_guard<std::mutex> g(g_report_mutex);
  g_report = Report{};
  for (auto& h : g_hazard) h.armed = false;
}

void on_unquiesced_commit(TxDesc& tx) noexcept {
  HazardState& h = g_hazard[tx.slot_id];
  ThreadSlot* slots = slot_table();
  const int hw = slot_high_water();
  bool any_peer_running = false;
  for (int i = 0; i < hw; ++i) {
    const std::uint64_t s =
        i == tx.slot_id ? 0 : slots[i].seq.load(std::memory_order_acquire);
    h.snapshot[i] = s;
    any_peer_running |= (s & 1) != 0;
  }
  // Record (a sample of) what the transaction wrote: those are the
  // locations a privatization race through this commit can involve.
  h.nwrites = 0;
  h.writes_overflowed = false;
  for (const UndoEntry& u : tx.undo) {
    if (h.nwrites >= HazardState::kMaxWrites) {
      h.writes_overflowed = true;  // fall back to address-insensitive mode
      break;
    }
    h.writes[h.nwrites++] = u.addr;
  }
  for (const HtmWrite& w : tx.hwrites) {
    if (h.nwrites >= HazardState::kMaxWrites) {
      h.writes_overflowed = true;
      break;
    }
    h.writes[h.nwrites++] = w.addr;
  }
  h.armed = any_peer_running;
  h.site = tx.site;
  // Per-site obs attribution: the ranked site table can then name the
  // TLE_TX_SITE whose unquiesced commits arm privatization hazards.
  if (h.armed) count(tx, Ctr::audit_hazard_arms);
  std::lock_guard<std::mutex> g(g_report_mutex);
  ++g_report.unquiesced_commits;
}

void on_quiesced(TxDesc& tx) noexcept {
  g_hazard[tx.slot_id].armed = false;
}

void on_unsafe_access(const void* addr) noexcept {
  const int me = my_slot_id();
  HazardState& h = g_hazard[me];
  if (!h.armed) return;
  // Address filter: only data the unquiesced commit wrote can have been
  // privatized by it (unless the sample overflowed).
  if (!h.writes_overflowed) {
    bool mine = false;
    for (int i = 0; i < h.nwrites; ++i)
      if (h.writes[i] == addr) {
        mine = true;
        break;
      }
    if (!mine) return;
  }
  ThreadSlot* slots = slot_table();
  const int hw = slot_high_water();
  bool still_running = false;
  int witness = -1;
  for (int i = 0; i < hw; ++i) {
    const std::uint64_t snap = h.snapshot[i];
    if (!(snap & 1)) continue;  // peer was not in a transaction
    if (slots[i].seq.load(std::memory_order_acquire) == snap) {
      still_running = true;
      witness = i;
      break;
    }
  }
  if (!still_running) {
    // Every overlapping transaction has finished: the hazard has expired.
    h.armed = false;
    return;
  }
  std::lock_guard<std::mutex> g(g_report_mutex);
  ++g_report.flagged_accesses;
  if (g_report.samples.size() < kMaxSamples) {
    const char* site_name = obs::site_info(h.site).name;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "thread %d touched %p non-transactionally while thread %d's "
                  "transaction (overlapping an unquiesced commit at site "
                  "\"%s\") still runs",
                  me, addr, witness, site_name);
    g_report.samples.emplace_back(buf);
  }
}

}  // namespace tle::audit
