// The per-thread transaction descriptor.
//
// One TxDesc exists per thread (lazily, on first transactional operation).
// It owns the read set, write (owned-orec) set, undo log, simulated-HTM
// value log and write buffer, allocation logs, and deferred actions — plus
// the setjmp environment that abort-and-retry unwinds to.
#pragma once

#include <algorithm>
#include <csetjmp>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "tm/config.hpp"
#include "tm/meta.hpp"
#include "tm/registry.hpp"
#include "util/rng.hpp"

namespace tle {

/// How TxContext accessors touch memory for the current section.
enum class AccessMode : std::uint8_t {
  Direct,  ///< under the real lock or the serial token: plain accesses
  Stm,     ///< ml_wt STM accesses (orec locks, write-through, undo log)
  Htm,     ///< simulated-HTM accesses (value log + write buffer)
};

/// Dedup/capacity tracker for the simulated-HTM L1 model: a tiny
/// set-associative "cache" of 64-byte line tags. touch() returns false when
/// the structure would need to evict a transactional line — a capacity abort.
class LineTracker {
 public:
  /// (Re)size the model. O(sets*ways); called only when the config changes.
  void configure(unsigned sets, unsigned ways) {
    sets_ = sets ? sets : 1;
    ways_ = ways ? ways : 1;
    tags_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
    gens_.assign(tags_.size(), 0);
    gen_ = 1;
    distinct_ = 0;
  }

  unsigned sets() const noexcept { return sets_; }
  unsigned ways() const noexcept { return ways_; }

  /// Start a new transaction: O(1) — old entries become stale via the
  /// generation stamp instead of a table wipe.
  void new_txn() noexcept {
    if (++gen_ == 0) {  // wrapped: genuinely wipe once every 2^32 txns
      std::fill(gens_.begin(), gens_.end(), 0);
      gen_ = 1;
    }
    distinct_ = 0;
  }

  /// Track the line containing `addr`. Returns false on capacity overflow
  /// (the set is full of this transaction's lines — a simulated eviction of
  /// speculative state, i.e. an HTM capacity abort).
  bool touch(const void* addr) noexcept {
    const std::uint64_t line =
        (reinterpret_cast<std::uintptr_t>(addr) >> 6) | (1ULL << 63);
    const std::size_t set =
        static_cast<std::size_t>(line * 0x9E3779B97F4A7C15ULL >> 32) % sets_;
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (gens_[base + w] != gen_) {  // free (stale) way
        tags_[base + w] = line;
        gens_[base + w] = gen_;
        ++distinct_;
        return true;
      }
      if (tags_[base + w] == line) return true;  // already tracked
    }
    return false;
  }

  std::size_t distinct_lines() const noexcept { return distinct_; }

 private:
  unsigned sets_ = 1;
  unsigned ways_ = 1;
  std::uint32_t gen_ = 0;
  std::size_t distinct_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> gens_;
};

/// Generation-stamped open-addressing map from an address (orec slot or
/// tm_var cell) to a 32-bit log position. Backbone of the O(1) hot paths:
/// HTM read-own-write and read-own-read, and owned-orec validation, all
/// consult one of these instead of scanning a log vector. Between
/// transactions reset is O(1) — stale entries expire via the same
/// generation trick as LineTracker, and the table is wiped only when the
/// 32-bit generation wraps.
class AddrIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Start a new transaction: O(1), prior entries become stale.
  void new_txn() noexcept {
    live_ = 0;
    if (++gen_ == 0) {  // wrapped: genuinely wipe once every 2^32 txns
      std::fill(gens_.begin(), gens_.end(), 0);
      gen_ = 1;
    }
  }

  /// Position recorded for `addr` this transaction, or kNone.
  std::uint32_t find(const void* addr) const noexcept {
    if (keys_.empty()) return kNone;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = hash(addr) & mask;; i = (i + 1) & mask) {
      if (gens_[i] != gen_) return kNone;  // stale slot terminates the probe
      if (keys_[i] == addr) return vals_[i];
    }
  }

  /// Record `addr -> pos`, overwriting any same-transaction entry.
  void insert(const void* addr, std::uint32_t pos) {
    // Grow at 3/4 load so probes stay short and never cycle.
    if (keys_.empty() || (live_ + 1) * 4 > keys_.size() * 3) grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = hash(addr) & mask;; i = (i + 1) & mask) {
      if (gens_[i] != gen_) {
        keys_[i] = addr;
        vals_[i] = pos;
        gens_[i] = gen_;
        ++live_;
        return;
      }
      if (keys_[i] == addr) {
        vals_[i] = pos;
        return;
      }
    }
  }

  std::size_t size() const noexcept { return live_; }
  std::size_t capacity() const noexcept { return keys_.size(); }

 private:
  static std::size_t hash(const void* addr) noexcept {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(addr) >> 3) *
            0x9E3779B97F4A7C15ULL >>
        32);
  }

  void grow() {
    const std::size_t cap = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<const void*> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    std::vector<std::uint32_t> old_gens = std::move(gens_);
    keys_.assign(cap, nullptr);
    vals_.assign(cap, 0);
    gens_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    // Rehash only this transaction's live entries; stale ones are garbage.
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_gens[i] != gen_) continue;
      std::size_t j = hash(old_keys[i]) & mask;
      while (gens_[j] == gen_) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
      gens_[j] = gen_;
    }
  }

  std::uint32_t gen_ = 1;
  std::size_t live_ = 0;
  std::vector<const void*> keys_;
  std::vector<std::uint32_t> vals_;
  std::vector<std::uint32_t> gens_;
};

struct ReadEntry {
  std::atomic<std::uint64_t>* orec;
  std::uint64_t seen;  // unlocked orec value observed at read time
};

struct OwnedOrec {
  std::atomic<std::uint64_t>* orec;
  std::uint64_t prev;  // unlocked value replaced by our lock word
};

struct UndoEntry {
  std::atomic<std::uint64_t>* addr;
  std::uint64_t old;
};

struct HtmRead {
  const std::atomic<std::uint64_t>* addr;
  std::uint64_t val;
  std::uint32_t stripe;  ///< commit-sequence stripe covering addr
};

struct HtmWrite {
  std::atomic<std::uint64_t>* addr;
  std::uint64_t val;
  std::uint32_t stripe;  ///< commit-sequence stripe covering addr
};

/// Integral member whose move resets the source to zero. The limbo
/// accounting scalars must track the `limbo` vector exactly: a defaulted
/// member-wise move empties the vector but would copy the counters, leaving
/// a moved-from descriptor claiming pending frees it no longer holds (and
/// spuriously force-flushing if reused). jmp_buf makes a hand-written
/// member-init move ctor for TxDesc impossible, so the fix lives here.
template <typename T>
struct ZeroOnMove {
  T v{};
  ZeroOnMove() = default;
  ZeroOnMove(const ZeroOnMove&) = default;
  ZeroOnMove& operator=(const ZeroOnMove&) = default;
  ZeroOnMove(ZeroOnMove&& o) noexcept : v(std::exchange(o.v, T{})) {}
  ZeroOnMove& operator=(ZeroOnMove&& o) noexcept {
    v = std::exchange(o.v, T{});
    return *this;
  }
  ZeroOnMove& operator=(T x) noexcept { v = x; return *this; }
  ZeroOnMove& operator+=(T x) noexcept { v += x; return *this; }
  ZeroOnMove& operator-=(T x) noexcept { v -= x; return *this; }
  T operator++() noexcept { return ++v; }
  operator T() const noexcept { return v; }
};

/// One commit's worth of deferred frees parked until a full all-domain
/// grace period elapses (epoch-based reclamation, paper Section IV-B).
/// Owner-thread access only.
struct LimboBatch {
  std::vector<void*> ptrs;
  /// Grace pass whose completion certifies release: taken as started+1 at
  /// enqueue, so any pass reaching it snapshotted the registry after the
  /// enqueue and therefore waited out every transaction that could still
  /// hold a zombie reference to these blocks.
  std::uint64_t ticket = 0;
  /// Position in this thread's enqueue order (see TxDesc::limbo_certified).
  std::uint64_t local_seq = 0;
};

struct TxDesc {
  // --- abort/retry machinery -------------------------------------------
  std::jmp_buf env;            ///< longjmp target: the retry loop
  unsigned attempts = 0;       ///< aborts of the current logical transaction
  bool force_serial = false;   ///< next attempt runs irrevocably
  int attr_retries = -1;       ///< per-section retry override (-1 = global,
                               ///< 0 = one attempt then serial)
  bool attr_prefer_serial = false;  ///< per-section straight-to-serial hint
  AbortCause last_abort = AbortCause::None;

  // --- identity ----------------------------------------------------------
  ThreadSlot* slot = nullptr;
  int slot_id = -1;
  TxStats* stats = nullptr;

  // --- current-section state ----------------------------------------------
  AccessMode access = AccessMode::Direct;
  std::uint32_t depth = 0;  ///< flat nesting depth (0 = not in a section)
  bool is_serial = false;   ///< holding the serial write token
  bool in_lock_section = false;  ///< Lock-mode critical section (no TM)
  std::uint32_t domain = 0;      ///< quiescence domain (ablation A3)
  std::uint16_t site = 0;   ///< obs::TxSite of the current top-level section
  /// Attempt start stamp (obs enabled only). When kMetricsBit is set the
  /// begin/serial-enter paths also mirror it into slot->txn_begin_ns so the
  /// metrics sampler can compute the oldest-in-flight-transaction gauge
  /// without touching this (unsynchronized) descriptor.
  std::uint64_t obs_t0 = 0;

  // --- STM -------------------------------------------------------------
  std::uint64_t rv = 0;   ///< validity timestamp (snapshot)
  // Governor state reset at every commit and updated at every abort.
  std::uint64_t txn_start_ns = 0;  ///< watchdog stamp: first abort of this
                                   ///< logical txn
  unsigned budget_used = 0;  ///< subset of `attempts` that consumed retry
                             ///< budget (drain waits are free — governor)
  /// Unused; keeps `read_only` and the three STM logs below at the
  /// cache-line offsets they were measured at.
  std::uint8_t layout_pad[5] = {};
  bool read_only = true;
  std::vector<ReadEntry> reads;
  std::vector<OwnedOrec> owned;
  std::vector<UndoEntry> undo;
  AddrIndex owned_idx;  ///< orec -> owned[] position (O(1) validation)

  // --- simulated HTM -------------------------------------------------------
  std::vector<HtmRead> hreads;
  std::vector<HtmWrite> hwrites;
  AddrIndex hread_idx;      ///< cell -> hreads[] position (read-own-read)
  AddrIndex hwrite_idx;     ///< cell -> hwrites[] position (read-own-write)
  LineTracker rcap;  ///< read-set capacity model
  LineTracker wcap;  ///< write-set capacity model
  bool cap_configured = false;

  // Per-stripe snapshot state. A stripe becomes "subscribed" on the first
  // read it covers: hstripe_snap[s] then holds the even sequence value the
  // logged entries of that stripe are valid at. Membership is generation-
  // stamped (same O(1)-reset trick as AddrIndex); hsub[] lists subscribed
  // stripes for O(subscribed) scans instead of O(kHtmStripeMax).
  std::uint64_t hstripe_snap[kHtmStripeMax] = {};
  std::uint32_t hstripe_gen[kHtmStripeMax] = {};
  std::uint32_t hstripe_cur_gen = 0;
  std::uint32_t hsub[kHtmStripeMax] = {};
  unsigned hsub_n = 0;
  // Last block whose stripe was computed, and that stripe: consecutive
  // accesses walk the same 512-byte block, so the hot path skips the hash.
  // Reset per transaction because the mapping depends on htm_seq_stripes.
  std::uintptr_t hblock_cache = ~std::uintptr_t{0};
  unsigned hblock_stripe = 0;
  // True until the next read re-observes ALL subscribed stripes at their
  // snaps in one pass (a "full confirmation"): that pass fixes a real
  // instant t0 at which every logged value was simultaneously live. While
  // clean, a read only has to re-check its OWN stripe — seeing it still at
  // its snap proves the loaded value already existed at t0, so the cut
  // stays consistent with one load instead of O(subscribed).
  bool hsub_dirty = true;

  bool stripe_subscribed(unsigned s) const noexcept {
    return hstripe_gen[s] == hstripe_cur_gen;
  }
  void stripe_subscribe(unsigned s, std::uint64_t snap) noexcept {
    hstripe_snap[s] = snap;
    hstripe_gen[s] = hstripe_cur_gen;
    hsub[hsub_n++] = s;
    hsub_dirty = true;  // t0 does not cover the new stripe yet
  }
  /// O(1) between-transaction reset of the subscription set.
  void stripes_new_txn() noexcept {
    hsub_n = 0;
    hsub_dirty = true;
    hblock_cache = ~std::uintptr_t{0};
    if (++hstripe_cur_gen == 0) {  // wrapped: wipe once every 2^32 txns
      std::fill(hstripe_gen, hstripe_gen + kHtmStripeMax, 0u);
      hstripe_cur_gen = 1;
    }
  }

  // --- quiescence interaction ----------------------------------------------
  bool noquiesce_req = false;  ///< TM_NoQuiesce called at top level
  bool freed_memory = false;   ///< transaction freed memory (§IV-B exception)

  // --- allocation + deferral logs -------------------------------------------
  std::vector<void*> allocs;  ///< released if the transaction aborts
  std::vector<void*> frees;   ///< released after commit (+forced quiescence)
  std::vector<std::function<void()>> deferred;  ///< run post-commit, FIFO

  // --- limbo (grace-period reclamation) -----------------------------------
  // Unlike the per-section logs above, these persist across transactions:
  // clear_logs() must never touch them — a batch lives here until a grace
  // period covers it.
  std::vector<LimboBatch> limbo;  ///< FIFO, stamps nondecreasing
  /// Total pointers across `limbo`. ZeroOnMove: must reset with the vector.
  ZeroOnMove<std::size_t> limbo_pending;
  /// Enqueue counter (stamps local_seq). ZeroOnMove: see limbo_pending.
  ZeroOnMove<std::uint64_t> limbo_seq;
  /// Highest local_seq certified by this thread's own all-domain quiesce:
  /// an ordering quiesce that happens to cover all domains doubles as the
  /// grace period for every batch enqueued before it, even when the shared
  /// counters never moved (fast-path scans and serial sections don't
  /// publish passes).
  ZeroOnMove<std::uint64_t> limbo_certified;

  // --- contention governor state ---------------------------------------
  // Read by the governor on the abort path only, never on the per-access
  // hot path — kept out of the prefix above so the section-state and
  // read/write-set index fields keep their PR-4 cache-line placement.
  /// Per-section gov::Disposition override by cause (0 = Inherit).
  std::uint8_t attr_disp[static_cast<int>(AbortCause::kCount)] = {};

  Xoshiro256 backoff_rng{0xC0FFEE};

  TxDesc() = default;
  TxDesc(TxDesc&&) = default;
  /// Flushes any still-limbo frees through a forced grace period; defined
  /// in engine.cpp. Runs at thread exit, before the slot lease is released.
  ~TxDesc();

  // ---------------------------------------------------------------------
  /// The calling thread's descriptor (created on first use).
  static TxDesc& current() noexcept;

  bool in_txn() const noexcept { return depth > 0; }

  void clear_logs() noexcept {
    reads.clear();
    owned.clear();
    undo.clear();
    hreads.clear();
    hwrites.clear();
    owned_idx.new_txn();
    hread_idx.new_txn();
    hwrite_idx.new_txn();
    stripes_new_txn();
    allocs.clear();
    frees.clear();
    deferred.clear();
    noquiesce_req = false;
    freed_memory = false;
    read_only = true;
  }
};

// ---------------------------------------------------------------------------
// Engine entry points (engine.cpp). All may longjmp to tx.env on abort.
// ---------------------------------------------------------------------------

/// Begin/commit a speculative attempt in the configured mode.
void tx_begin_speculative(TxDesc& tx);
void tx_commit_speculative(TxDesc& tx);

/// Post-commit duties that never abort: quiescence (per policy and
/// TM_NoQuiesce), deferred frees, deferred actions.
void tx_post_commit(TxDesc& tx);

/// Roll back and longjmp(env, cause). Never returns.
[[noreturn]] void tx_abort(TxDesc& tx, AbortCause cause);

/// Roll back WITHOUT longjmp (used to propagate a user exception out of an
/// atomic section with cancel-and-throw semantics).
void tx_rollback_for_exception(TxDesc& tx);

/// Word accessors dispatched on tx.access.
std::uint64_t tx_read_word(TxDesc& tx, const std::atomic<std::uint64_t>& cell);
void tx_write_word(TxDesc& tx, std::atomic<std::uint64_t>& cell,
                   std::uint64_t value);

/// Serial execution bookkeeping (engine.cpp): acquire/release the serial
/// write token with epoch + stats updates.
void tx_serial_enter(TxDesc& tx);
void tx_serial_exit(TxDesc& tx);

/// Randomized-exponential backoff between retries.
void tx_backoff(TxDesc& tx);

/// Epoch-wait: block until every concurrent transaction in `tx`'s domain
/// (all domains when multi_domain is off, or when `all_domains` is set —
/// required before freeing memory, where safety is global) commits or
/// aborts. Exposed for tests and for tm_fence().
void quiesce_wait(TxDesc& tx, bool all_domains = false);

/// Mode-aware reclamation predicate: true while any OTHER thread has a
/// simulated-HTM transaction in flight. Such readers validate lazily (one
/// value-validated load can land after a privatizing commit), so a free
/// that can race them must route through limbo instead of releasing
/// storage immediately. STM-only and quiet registries return false,
/// preserving the paper's per-mode quiesce-or-free cost model.
bool htm_readers_possible() noexcept;

/// Free a privatized block from NON-transactional code (the post-detach
/// `delete` of a privatizing writer). Routes through limbo when
/// htm_readers_possible(), frees immediately otherwise; inside a section it
/// degrades to the ordinary deferred-free path. See api.hpp's
/// tm_private_delete<T>() / TM_PRIVATE_FREE for the typed wrappers.
void tm_private_free(void* p);

}  // namespace tle
