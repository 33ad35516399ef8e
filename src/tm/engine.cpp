// The speculative engines and the shared commit/abort/quiescence machinery.
//
//   * STM: ml_wt, GCC libitm's default method group and the algorithm the
//     paper's STM numbers use — encounter-time orec write locks,
//     write-through with an undo log, and a global version clock with
//     TinySTM-style timestamp extension (orecs and clock in meta.hpp).
//   * Simulated HTM: NOrec-shaped, with the commit sequence STRIPED — a
//     table of padded seqlock words sharded by address (meta.hpp). A
//     committer bumps only the stripes its write set touches (ascending
//     acquisition); readers subscribe stripes lazily as their footprint
//     grows and value-revalidate only entries whose stripe moved. Plus an
//     L1 capacity model and eager fallback-lock subscription (paper Section
//     II-A behaviours: a reader slot held from begin, and a per-access
//     poll of the serial lock).
//
// Both engines share epochs, quiescence (paper Section IV), limbo
// reclamation, serial fallback and stats/obs, all in this file.
//
// Abort is longjmp-based: speculative bodies must confine side effects to
// tm_var accesses, TxContext::alloc/free, and deferred actions (the same
// contract compiler-based TM enforces statically via transaction_safe).
#include "tm/txdesc.hpp"

#include <cstdlib>

#include "tm/audit.hpp"
#include "tm/fault/fault.hpp"
#include "tm/obs/site.hpp"
#include "tm/serial_lock.hpp"
#include "tm/stats.hpp"
#include "tm/trace.hpp"
#include "util/align.hpp"
#include "util/timing.hpp"

namespace tle {

namespace {

TxStats& st(TxDesc& tx) noexcept { return *tx.stats; }

/// Fault-injection decision point: consult the armed plan at `h` and abort
/// with the injected cause if a rule fires. The abort takes the ordinary
/// tx_abort path, so rollback, per-cause stats, per-site obs attribution and
/// the retry/serial-fallback policy all treat it exactly like an organic
/// abort — only the extra faults_injected row distinguishes it.
void maybe_inject(TxDesc& tx, fault::Hook h) {
  if (!fault::active()) return;
  const AbortCause cause = fault::should_abort(h);
  if (cause == AbortCause::None) return;
  st(tx).bump(st(tx).faults_injected);
  tx_abort(tx, cause);
}

/// Schedule-perturbation point: widen the handshake window at `h` with the
/// plan's yield/sleep, accounting the delay to `stats`.
void maybe_perturb(TxStats& stats, fault::Hook h) {
  if (fault::active() && fault::perturb(h)) stats.bump(stats.fault_delays);
}

// Observability helpers: logged-set sizes for the flight recorder, read
// while the logs are still intact (i.e. before clear_logs()). STM counts
// its read log and undo log.
std::uint32_t obs_rset(const TxDesc& tx) noexcept {
  return static_cast<std::uint32_t>(
      tx.access == AccessMode::Htm ? tx.hreads.size() : tx.reads.size());
}
std::uint32_t obs_wset(const TxDesc& tx) noexcept {
  return static_cast<std::uint32_t>(
      tx.access == AccessMode::Htm ? tx.hwrites.size() : tx.undo.size());
}

/// Close an attempt in the obs layer (for ob != 0): clear the in-flight
/// stamp, add the attempt's duration to its site's histogram, and trace
/// `ev`, with the read/write-set sizes when `sets`.
void obs_attempt_end(TxDesc& tx, std::uint32_t ob, trace::Event ev,
                     AbortCause cause, bool sets) {
  const std::uint64_t dur = now_ns() - tx.obs_t0;
  if (ob & obs::kMetricsBit)
    tx.slot->txn_begin_ns.store(0, std::memory_order_relaxed);
  if (ob & obs::kProfileBit)
    obs::site_counters(tx.slot_id, tx.site).attempt_ns.add(dur);
  if (ob & obs::kTraceBit)
    trace::emit(ev, cause, tx.site, static_cast<std::uint16_t>(tx.attempts),
                sets ? obs_rset(tx) : 0, sets ? obs_wset(tx) : 0, dur);
}

// ---------------------------------------------------------------------------
// Epochs (quiescence substrate)
// ---------------------------------------------------------------------------

void epoch_enter(TxDesc& tx) noexcept {
  tx.slot->domain.store(tx.domain, std::memory_order_relaxed);
  // Mode flag for htm_readers_possible(): stored before the seq_cst seq
  // bump, so a scanner that observes the odd seq also observes the flag.
  tx.slot->htm_active.store(tx.access == AccessMode::Htm ? 1 : 0,
                            std::memory_order_relaxed);
  // seq_cst so the odd value is globally visible before any transactional
  // read — a peer that misses it could under-wait in quiescence.
  tx.slot->seq.fetch_add(1, std::memory_order_seq_cst);
}

void epoch_exit(TxDesc& tx) noexcept {
  // Perturbation point: delaying the exit keeps this slot's seq odd longer,
  // deterministically driving quiescers into their spin-then-park path.
  maybe_perturb(st(tx), fault::Hook::EpochExit);
  // The RMW orders the undo/write-back stores before the "done" signal a
  // quiescing privatizer synchronizes with. seq_cst (not release) is the
  // Dekker edge of the park protocol: a quiescer raises slot->parked, then
  // re-reads seq at seq_cst before sleeping — with both sides seq_cst,
  // either its re-read sees this increment or the load below sees its
  // parked count, so a straggler exit can never slip past a parking waiter
  // unnoticed. Uncontended cost is unchanged on x86 (an RMW is a locked op
  // at any ordering) plus one same-line load.
  tx.slot->seq.fetch_add(1, std::memory_order_seq_cst);
  if (tx.slot->parked.load(std::memory_order_seq_cst) != 0)
    tx.slot->seq.notify_all();
}

// ---------------------------------------------------------------------------
// STM: ml_wt (multiple orec locks, write-through)
// ---------------------------------------------------------------------------

/// Read-set validation. Aborts on any orec whose unlocked value changed or
/// that is now owned by another transaction. An orec we ourselves own is
/// valid iff the pre-lock value we stashed matches what the read observed.
void stm_validate(TxDesc& tx) {
  for (const ReadEntry& r : tx.reads) {
    const std::uint64_t cur = r.orec->load(std::memory_order_acquire);
    if (cur == r.seen) continue;
    if (orec_locked(cur) && orec_owner(cur) == &tx) {
      const std::uint32_t i = tx.owned_idx.find(r.orec);
      if (i != AddrIndex::kNone && tx.owned[i].prev == r.seen) continue;
    }
    tx_abort(tx, AbortCause::Validation);
  }
}

/// TinySTM timestamp extension: adopt the current clock if the read set is
/// still valid; abort otherwise.
void stm_extend(TxDesc& tx) {
  const std::uint64_t now = gclock().load(std::memory_order_acquire);
  stm_validate(tx);
  tx.rv = now;
}

void stm_begin(TxDesc& tx) {
  tx.rv = gclock().load(std::memory_order_acquire);
}

std::uint64_t stm_read(TxDesc& tx, const std::atomic<std::uint64_t>& cell) {
  if (serial_lock().serial_requested())
    tx_abort(tx, AbortCause::SerialPending);
  std::atomic<std::uint64_t>& o = orec_for(&cell);
  for (unsigned spin = 0;;) {
    const std::uint64_t ov = o.load(std::memory_order_acquire);
    if (orec_locked(ov)) {
      if (orec_owner(ov) == &tx) {
        // Read-own-write: write-through means memory holds the new value.
        return cell.load(std::memory_order_relaxed);
      }
      tx_abort(tx, AbortCause::Conflict);
    }
    if (orec_timestamp(ov) > tx.rv) {
      stm_extend(tx);
      continue;  // re-read under the extended snapshot
    }
    const std::uint64_t val = cell.load(std::memory_order_acquire);
    if (o.load(std::memory_order_acquire) != ov) {
      spin_pause(spin++);
      continue;  // concurrent lock/release between our two orec loads
    }
    // Every read is logged, repeats included, as libitm's ml_wt does: a
    // repeat only lengthens the log that validation walks.
    tx.reads.push_back({&o, ov});
    return val;
  }
}

void stm_write(TxDesc& tx, std::atomic<std::uint64_t>& cell,
               std::uint64_t value) {
  if (serial_lock().serial_requested())
    tx_abort(tx, AbortCause::SerialPending);
  std::atomic<std::uint64_t>& o = orec_for(&cell);
  for (;;) {
    const std::uint64_t ov = o.load(std::memory_order_acquire);
    if (orec_locked(ov)) {
      if (orec_owner(ov) != &tx) tx_abort(tx, AbortCause::Conflict);
      break;  // already own it
    }
    if (orec_timestamp(ov) > tx.rv) {
      stm_extend(tx);
      continue;
    }
    std::uint64_t expected = ov;
    if (o.compare_exchange_strong(expected, orec_lockword(&tx),
                                  std::memory_order_acq_rel)) {
      tx.owned_idx.insert(&o, static_cast<std::uint32_t>(tx.owned.size()));
      tx.owned.push_back({&o, ov});
      break;
    }
    // Lost the race; loop re-examines the new value.
  }
  tx.undo.push_back({&cell, cell.load(std::memory_order_relaxed)});
  cell.store(value, std::memory_order_relaxed);
  tx.read_only = false;
}

void stm_commit(TxDesc& tx) {
  if (tx.read_only) return;
  const std::uint64_t wv = gclock().fetch_add(1, std::memory_order_acq_rel) + 1;
  // If nobody committed since we started, the read set is trivially valid.
  if (wv != tx.rv + 1) stm_validate(tx);
  for (const OwnedOrec& o : tx.owned)
    o.orec->store(orec_commit_release(o.prev, wv), std::memory_order_release);
}

/// Undo and release; safe at any point read/write/commit can abort, and on
/// the exception path.
void stm_rollback(TxDesc& tx) noexcept {
  // Undo in reverse so multiply-written words regain their oldest value.
  for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
    it->addr->store(it->old, std::memory_order_relaxed);
  // The release on the orec publishes the restored values; the incarnation
  // bump invalidates readers racing with our speculation.
  for (const OwnedOrec& o : tx.owned)
    o.orec->store(orec_abort_release(o.prev), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Simulated HTM (NOrec-shaped)
// ---------------------------------------------------------------------------

void htm_configure_capacity(TxDesc& tx) {
  const RuntimeConfig& cfg = config();
  if (!tx.cap_configured || tx.wcap.sets() != cfg.htm_write_sets ||
      tx.wcap.ways() != cfg.htm_write_ways ||
      tx.rcap.sets() != cfg.htm_read_sets ||
      tx.rcap.ways() != cfg.htm_read_ways) {
    tx.wcap.configure(cfg.htm_write_sets, cfg.htm_write_ways);
    tx.rcap.configure(cfg.htm_read_sets, cfg.htm_read_ways);
    tx.cap_configured = true;
  }
  tx.wcap.new_txn();
  tx.rcap.new_txn();
}

void htm_begin(TxDesc& tx) {
  htm_configure_capacity(tx);
  // No sequence snapshot here: stripes are subscribed lazily at first
  // touch, so begin neither spins against an in-flight writeback (the old
  // unbounded htm_begin wait) nor shares a line with unrelated committers.
  tx.stripes_new_txn();
}

/// Wait out a writeback (odd sequence) on stripe `s`, bounded: after
/// park_spin_limit pauses the attempt aborts with StripeBusy instead of
/// spinning forever against a preempted committer (satellite of the old
/// unbounded htm_begin/htm_revalidate spin). The governor treats StripeBusy
/// like SerialPending — a budget-free backoff-and-retry — because the
/// blocking writeback, like a serial window, clears on its own.
std::uint64_t htm_stripe_wait_even(TxDesc& tx, unsigned s) {
  unsigned spin = 0;
  const unsigned limit = config().park_spin_limit;
  for (;;) {
    const std::uint64_t v = htm_stripe_seq(s).load(std::memory_order_acquire);
    if (!(v & 1)) return v;
    if (spin >= limit) tx_abort(tx, AbortCause::StripeBusy);
    spin_pause(spin++);
  }
}

/// Value-revalidate the logged entries of stripe `s` and adopt its newest
/// even sequence. Aborts if any value changed. A pass that completes found
/// only false invalidation (a commit to the stripe that did not overwrite
/// anything we read — aliasing within the stripe, or ABA by value), which
/// stripe_false_revalidations counts: it is the residual cost striping
/// exists to shrink.
void htm_stripe_revalidate(TxDesc& tx, unsigned s) {
  for (;;) {
    const std::uint64_t cur = htm_stripe_wait_even(tx, s);
    if (cur == tx.hstripe_snap[s]) return;
    for (const HtmRead& r : tx.hreads) {
      if (r.stripe == s && r.addr->load(std::memory_order_acquire) != r.val)
        tx_abort(tx, AbortCause::Validation);
    }
    if (htm_stripe_seq(s).load(std::memory_order_acquire) != cur)
      continue;  // another commit landed mid-pass: re-run against it
    tx.hstripe_snap[s] = cur;
    const std::uint32_t ob = obs::flags();
    count(tx, Ctr::stripe_false_revalidations, 1, ob);
    if (ob & obs::kTraceBit)
      trace::emit(trace::Event::StripeRevalidate, AbortCause::None, tx.site,
                  static_cast<std::uint16_t>(tx.attempts),
                  static_cast<std::uint32_t>(s));
    return;
  }
}

/// Bring every subscribed stripe whose sequence moved back to a validated
/// snapshot. O(subscribed stripes) loads when nothing moved.
void htm_revalidate_moved(TxDesc& tx) {
  for (unsigned i = 0; i < tx.hsub_n; ++i) {
    const unsigned s = tx.hsub[i];
    if (htm_stripe_seq(s).load(std::memory_order_acquire) !=
        tx.hstripe_snap[s])
      htm_stripe_revalidate(tx, s);
  }
}

/// True while every subscribed stripe still shows its snapshot value. Since
/// sequences only grow, observing snap at time t proves no commit to the
/// stripe completed (or was mid-writeback) at t — the post-read pass over
/// this predicate is what makes the per-stripe snapshots one consistent cut.
bool htm_stripes_current(const TxDesc& tx) noexcept {
  for (unsigned i = 0; i < tx.hsub_n; ++i) {
    const unsigned s = tx.hsub[i];
    if (htm_stripe_seq(s).load(std::memory_order_acquire) !=
        tx.hstripe_snap[s])
      return false;
  }
  return true;
}

/// htm_stripe_index with a per-transaction single-entry block cache:
/// consecutive accesses overwhelmingly stay in one 512-byte block, so the
/// hot path is a compare instead of the multiply/shift/mask.
inline unsigned htm_stripe_cached(TxDesc& tx, const void* addr) noexcept {
  const std::uintptr_t block =
      reinterpret_cast<std::uintptr_t>(addr) >> kHtmStripeBlockShift;
  if (block != tx.hblock_cache) {
    tx.hblock_cache = block;
    tx.hblock_stripe = htm_stripe_index(addr);
  }
  return tx.hblock_stripe;
}

/// Subscribe the stripe covering `addr` (first read it covers): snapshot
/// it and mark the cut dirty — the caller's slow path then re-checks the
/// stripes already subscribed so the new snapshot joins a globally
/// consistent cut. Without that, a commit spanning an old stripe and the
/// new one could slip between the two subscriptions unnoticed.
unsigned htm_subscribe_stripe(TxDesc& tx, const void* addr) {
  const unsigned s = htm_stripe_cached(tx, addr);
  if (tx.stripe_subscribed(s)) return s;
  tx.stripe_subscribe(s, htm_stripe_wait_even(tx, s));
  return s;
}

std::uint64_t htm_read(TxDesc& tx, const std::atomic<std::uint64_t>& cell) {
  // Real HTM transactions die the instant the fallback lock is taken; the
  // pending-writer poll is our analog of the lock-word subscription.
  if (serial_lock().serial_requested())
    tx_abort(tx, AbortCause::SerialPending);

  // Read-own-write from the store buffer: O(1). Last write wins because
  // htm_write updates buffered entries in place.
  std::uint32_t idx = tx.hwrite_idx.find(&cell);
  if (idx != AddrIndex::kNone) {
    st(tx).bump(st(tx).htm_rw_hits);
    return tx.hwrites[idx].val;
  }
  // Read-own-read: a repeat of a logged word is served from the value log.
  // The logged copy is exactly the snapshot-consistent value for its
  // stripe, so the repeat neither touches shared memory nor revalidates.
  idx = tx.hread_idx.find(&cell);
  if (idx != AddrIndex::kNone) {
    st(tx).bump(st(tx).htm_read_dedup);
    return tx.hreads[idx].val;
  }

  const unsigned s = htm_subscribe_stripe(tx, &cell);
  // Zombie window (deterministic reproduction): between a peer's privatizing
  // commit and this read's post-load stripe check, the load below touches
  // memory the peer may already consider private. A Delay rule at htm_zombie
  // parks the reader exactly here, so a racing free turns the next load into
  // a certain use-after-free unless the free was limbo-routed.
  maybe_perturb(st(tx), fault::Hook::HtmZombieLoad);
  std::uint64_t val;
  for (;;) {
    if (tx.hsub_dirty) {
      // Slow path (new subscription, or a stripe moved): re-sync every
      // moved stripe, then re-observe ALL subscribed stripes at their
      // snaps AFTER the load — that pass fixes the instant t0 at which
      // the logged values and `val` were simultaneously live.
      htm_revalidate_moved(tx);
      val = cell.load(std::memory_order_acquire);
      if (!htm_stripes_current(tx)) continue;
      tx.hsub_dirty = false;
      break;
    }
    // Fast path: one post-load check of the owning stripe. Seeing it still
    // at its snap — unchanged since the t0 confirmation, sequences only
    // grow — proves no commit touched this stripe in [t0, now], so `val`
    // already existed at t0 and joins the consistent cut as-is. Stripes
    // this read does not touch cannot invalidate it and are not checked.
    val = cell.load(std::memory_order_acquire);
    if (htm_stripe_seq(s).load(std::memory_order_acquire) ==
        tx.hstripe_snap[s])
      break;
    tx.hsub_dirty = true;  // own stripe moved: rebuild the full cut
  }
  if (!tx.rcap.touch(&cell)) tx_abort(tx, AbortCause::Capacity);
  tx.hread_idx.insert(&cell, static_cast<std::uint32_t>(tx.hreads.size()));
  tx.hreads.push_back({&cell, val, s});
  return val;
}

void htm_write(TxDesc& tx, std::atomic<std::uint64_t>& cell,
               std::uint64_t value) {
  if (serial_lock().serial_requested())
    tx_abort(tx, AbortCause::SerialPending);
  if (!tx.wcap.touch(&cell)) tx_abort(tx, AbortCause::Capacity);
  // In-place upsert keeps the buffer at one entry per address while
  // preserving last-write-wins for both htm_read and commit write-back.
  // The stripe is resolved here, once, so commit's stripe-set build is a
  // scan of the buffer instead of a re-hash of every address.
  const std::uint32_t idx = tx.hwrite_idx.find(&cell);
  if (idx != AddrIndex::kNone) {
    tx.hwrites[idx].val = value;
  } else {
    tx.hwrite_idx.insert(&cell, static_cast<std::uint32_t>(tx.hwrites.size()));
    tx.hwrites.push_back({&cell, value, htm_stripe_cached(tx, &cell)});
  }
  tx.read_only = false;
}

void htm_commit(TxDesc& tx) {
  // Environmental abort model: real HTM transactions die to interrupts,
  // TLB misses, and cache pressure regardless of contention; the rate knob
  // reproduces the paper's observed TSX failure statistics.
  const double p = config().htm_spurious_abort_rate;
  if (p > 0 && tx.backoff_rng.chance(p)) tx_abort(tx, AbortCause::Spurious);
  if (tx.hwrites.empty()) {
    // Read-only: every read left the subscribed stripes on one validated
    // consistent cut, so there is nothing to publish or re-check.
    return;
  }

  // Distinct write stripes, ascending. Ordered acquisition is deadlock-free
  // among committers; the cross-wait a committer can still hit (holding its
  // own stripes odd while validating reads against a stripe another
  // committer holds) is broken by the bounded wait + StripeBusy abort.
  bool is_write_stripe[kHtmStripeMax] = {};
  std::uint64_t prev_by_stripe[kHtmStripeMax];
  unsigned ws[kHtmStripeMax];
  unsigned nw = 0;
  for (const HtmWrite& w : tx.hwrites) {
    if (!is_write_stripe[w.stripe]) {
      is_write_stripe[w.stripe] = true;
      ws[nw++] = w.stripe;
    }
  }
  std::sort(ws, ws + nw);

  unsigned held = 0;
  const unsigned limit = config().park_spin_limit;
  // Abort with every acquired stripe restored to its original even value.
  // Nothing has been published, so the restore is invisible to readers:
  // sequences only move forward at a real commit, and a reader that
  // snapshotted prev during our odd window was already waiting it out.
  auto fail = [&](AbortCause cause) {
    while (held) {
      --held;
      htm_stripe_seq(ws[held]).store(prev_by_stripe[ws[held]],
                                     std::memory_order_release);
    }
    tx_abort(tx, cause);
  };

  for (unsigned i = 0; i < nw; ++i) {
    unsigned spin = 0;
    for (;;) {
      std::uint64_t v = htm_stripe_seq(ws[i]).load(std::memory_order_acquire);
      if (v & 1) {
        if (spin >= limit) fail(AbortCause::StripeBusy);
        spin_pause(spin++);
        continue;
      }
      if (htm_stripe_seq(ws[i]).compare_exchange_weak(
              v, v + 1, std::memory_order_acq_rel)) {
        prev_by_stripe[ws[i]] = v;
        ++held;
        break;
      }
    }
  }
  // Validate subscribed read stripes that moved since their snapshot. A
  // stripe we hold is quiescent (any competing committer is parked on its
  // odd value), so comparing its pre-lock value against the snapshot
  // suffices; a foreign stripe gets the bounded wait + value check.
  for (unsigned i = 0; i < tx.hsub_n; ++i) {
    const unsigned s = tx.hsub[i];
    std::uint64_t cur;
    if (is_write_stripe[s]) {
      cur = prev_by_stripe[s];
      if (cur == tx.hstripe_snap[s]) continue;
    } else {
      cur = htm_stripe_seq(s).load(std::memory_order_acquire);
      if (cur == tx.hstripe_snap[s]) continue;
      unsigned spin = 0;
      while (cur & 1) {
        if (spin >= limit) fail(AbortCause::StripeBusy);
        spin_pause(spin++);
        cur = htm_stripe_seq(s).load(std::memory_order_acquire);
      }
    }
    for (const HtmRead& r : tx.hreads) {
      if (r.stripe == s && r.addr->load(std::memory_order_acquire) != r.val)
        fail(AbortCause::Validation);
    }
    tx.hstripe_snap[s] = cur;
  }

  for (const HtmWrite& w : tx.hwrites)
    w.addr->store(w.val, std::memory_order_relaxed);
  for (unsigned i = 0; i < nw; ++i)
    htm_stripe_seq(ws[i]).store(prev_by_stripe[ws[i]] + 2,
                                std::memory_order_release);
  // Counted after the point of no return so stripe_bumps tallies published
  // commits only: stripe_bumps == stripes bumped visible to other readers.
  count(tx, Ctr::stripe_bumps, nw);
}

}  // namespace

// ---------------------------------------------------------------------------
// Quiescence (paper Section IV)
//
// Three cooperating layers (docs/tm-internals.md, "Quiescence and
// reclamation"):
//   * epoch_scan — one registry pass in snapshot-then-recheck form, with
//     spin-then-park waiting on each straggler's epoch word;
//   * grace_sync — RCU-style shared grace periods: concurrent all-domain
//     quiesces piggyback on a single scanner via a global ticket counter;
//   * limbo_* — epoch-based reclamation: deferred frees wait out their
//     grace period on a per-thread limbo list instead of stalling the
//     committing transaction (the §IV-B allocator exception, amortized).
// ---------------------------------------------------------------------------

namespace {

/// One grace pass: snapshot every relevant peer's epoch once, then wait
/// only for the peers caught mid-transaction (odd) to advance past their
/// snapshot. Waiting is a bounded spin followed by a park on the
/// straggler's `seq` (epoch_exit notifies when the slot's parked counter is
/// raised). With `domain_filter`, only peers in `tx.domain` count —
/// sufficient for ordering publication, never for reclamation.
void epoch_scan(TxDesc& tx, bool domain_filter) {
  const int hw = slot_high_water();
  ThreadSlot* slots = slot_table();
  int ids[kMaxThreads];
  std::uint64_t snap[kMaxThreads];
  int n = 0;
  for (int i = 0; i < hw; ++i) {
    ThreadSlot& peer = slots[i];
    if (&peer == tx.slot) continue;
    const std::uint64_t v = peer.seq.load(std::memory_order_seq_cst);
    if (!(v & 1)) continue;  // not inside a transaction
    if (domain_filter &&
        peer.domain.load(std::memory_order_acquire) != tx.domain)
      continue;  // ablation A3: other quiescence domain
    ids[n] = i;
    snap[n] = v;
    ++n;
  }
  if (n == 0) return;
  TxStats& s = st(tx);
  const std::uint64_t wait_start = now_ns();
  std::uint64_t spins = 0;
  const unsigned spin_limit = config().park_spin_limit;
  for (int k = 0; k < n; ++k) {
    ThreadSlot& peer = slots[ids[k]];
    unsigned spin = 0;
    while (peer.seq.load(std::memory_order_acquire) == snap[k]) {
      if (spin < spin_limit) {
        spin_pause(spin++);
        ++spins;
        continue;
      }
      // Park on the straggler's epoch word. Dekker with epoch_exit: raise
      // parked, re-read seq at seq_cst, and only then sleep — the exiting
      // peer bumps seq (RMW) before loading parked, so one side always
      // sees the other; atomic::wait itself re-checks the value, so a
      // stale notify cannot strand us. parked_waits is bumped BEFORE the
      // sleep so observers (stats polls, tests) can see a live park.
      maybe_perturb(s, fault::Hook::EpochScan);
      peer.parked.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t cur = peer.seq.load(std::memory_order_seq_cst);
      if (cur == snap[k]) {
        s.bump(s.parked_waits);
        peer.seq.wait(cur, std::memory_order_seq_cst);
      }
      peer.parked.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  count(tx, Ctr::quiesce_waits);
  if (spins) s.bump(s.quiesce_spins, spins);
  s.bump(s.quiesce_wait_ns, now_ns() - wait_start);
}

/// True if no peer is currently mid-transaction (one snapshot pass, no
/// waiting). The uncontended-commit fast path: when it holds, a quiesce is
/// vacuously complete and the shared grace machinery — several RMWs on one
/// contended line — would be pure overhead.
bool epoch_peers_quiet(TxDesc& tx) noexcept {
  const int hw = slot_high_water();
  ThreadSlot* slots = slot_table();
  for (int i = 0; i < hw; ++i) {
    if (&slots[i] == tx.slot) continue;
    if (slots[i].seq.load(std::memory_order_seq_cst) & 1) return false;
  }
  return true;
}

/// All-domain quiescence with shared grace periods. The requester takes
/// ticket started+1; any pass numbered >= the ticket began (seq_cst
/// fetch_add on `started`) after the requester's load, so its snapshot
/// postdates the request and covers every transaction the requester could
/// race with. Concurrent requesters therefore piggyback on one scanner's
/// O(threads) pass instead of each running their own. Also certifies the
/// caller's limbo batches enqueued before entry (local certification — see
/// TxDesc::limbo_certified).
void grace_sync(TxDesc& tx) {
  TxStats& s = st(tx);
  const std::uint64_t mark = tx.limbo_seq;
  if (epoch_peers_quiet(tx)) {
    tx.limbo_certified = mark;
    return;
  }
  GraceState& g = grace_state();
  const std::uint64_t target = g.started.load(std::memory_order_seq_cst) + 1;
  const unsigned spin_limit = config().park_spin_limit;
  bool scanned = false;
  // Piggyback-wait accounting, accumulated across loop iterations so one
  // logical quiesce that re-competes after a short pass counts as one wait.
  bool waited = false;
  std::uint64_t total_spins = 0;
  std::uint64_t total_wait_ns = 0;
  while (g.completed.load(std::memory_order_seq_cst) < target) {
    std::uint32_t free_token = 0;
    if (g.scanner.compare_exchange_strong(free_token, 1,
                                          std::memory_order_seq_cst)) {
      // We are the scanner. Run a full pass unconditionally, even if
      // `completed` advanced while we raced for the token: piggybackers
      // park on `completed` changing, so a token holder that skipped the
      // scan would strand them on a stale value.
      const std::uint64_t pass =
          g.started.fetch_add(1, std::memory_order_seq_cst) + 1;
      const bool metered = obs::flags() & obs::kMetricsBit;
      const std::uint64_t scan_t0 = metered ? now_ns() : 0;
      epoch_scan(tx, /*domain_filter=*/false);
      if (metered) {
        const std::uint64_t scan_ns = now_ns() - scan_t0;
        g.last_scan_ns.store(scan_ns, std::memory_order_relaxed);
        g.scan_ns_total.fetch_add(scan_ns, std::memory_order_relaxed);
      }
      g.completed.store(pass, std::memory_order_seq_cst);
      maybe_perturb(s, fault::Hook::GracePublish);
      g.scanner.store(0, std::memory_order_seq_cst);
      if (g.parked.load(std::memory_order_seq_cst) != 0)
        g.completed.notify_all();
      s.bump(s.grace_scans);
      scanned = true;
      continue;  // pass >= target: the loop condition now fails
    }
    // A pass is in flight: piggyback. Spin briefly, then park on
    // `completed` — but only while pass c+1 has begun (started != c), which
    // guarantees the word will change and be notified. A scanner that has
    // already published c but still holds its token will never move the
    // word again, so parking on it then strands the requester: loop around
    // and compete for the token instead.
    const std::uint64_t c = g.completed.load(std::memory_order_seq_cst);
    if (c >= target) break;
    waited = true;
    const std::uint64_t wait_start = now_ns();
    unsigned spin = 0;
    while (spin < spin_limit &&
           g.completed.load(std::memory_order_acquire) == c) {
      spin_pause(spin++);
      ++total_spins;
    }
    maybe_perturb(s, fault::Hook::GraceWait);
    g.parked.fetch_add(1, std::memory_order_seq_cst);
    if (g.completed.load(std::memory_order_seq_cst) == c &&
        g.started.load(std::memory_order_seq_cst) != c) {
      s.bump(s.parked_waits);
      g.completed.wait(c, std::memory_order_seq_cst);
    }
    g.parked.fetch_sub(1, std::memory_order_seq_cst);
    total_wait_ns += now_ns() - wait_start;
  }
  if (waited) {
    count(tx, Ctr::quiesce_waits);
    if (total_spins) s.bump(s.quiesce_spins, total_spins);
    s.bump(s.quiesce_wait_ns, total_wait_ns);
  }
  if (!scanned) s.bump(s.grace_shared);
  tx.limbo_certified = mark;
}

/// Move the transaction's deferred frees onto the thread-local limbo list,
/// stamped with the grace ticket whose completion makes them safe to
/// release. Runs after epoch_exit: transactions beginning later cannot
/// acquire references to the privatized blocks, so waiting out everything
/// in flight at enqueue time (what ticket certification means) is enough.
void limbo_enqueue(TxDesc& tx) {
  LimboBatch b;
  b.ptrs = std::move(tx.frees);
  tx.frees.clear();
  b.ticket = grace_state().started.load(std::memory_order_seq_cst) + 1;
  b.local_seq = ++tx.limbo_seq;
  tx.limbo_pending += b.ptrs.size();
  tx.slot->limbo_pending.store(tx.limbo_pending, std::memory_order_relaxed);
  tx.limbo.push_back(std::move(b));
  st(tx).bump(st(tx).limbo_enqueued);
}

/// Release every limbo batch already covered by a full all-domain grace
/// period: globally (a shared pass numbered >= its ticket completed) or
/// locally (this thread ran its own all-domain quiesce after the enqueue).
/// Batches are FIFO with nondecreasing stamps, so a prefix drains. With
/// `force`, a synchronous grace period is run first so everything drains —
/// the bounded-memory backstop and the thread-exit path.
void limbo_drain(TxDesc& tx, bool force) {
  if (tx.limbo.empty()) return;
  TxStats& s = st(tx);
  if (force) {
    grace_sync(tx);
    s.bump(s.limbo_forced_flush);
    // A forced flush is a genuine all-domain quiesce: it also discharges
    // any armed privatization hazard for this thread.
    if (audit::enabled()) audit::on_quiesced(tx);
  }
  const std::uint64_t completed =
      grace_state().completed.load(std::memory_order_seq_cst);
  std::size_t n = 0;
  for (LimboBatch& b : tx.limbo) {
    if (completed < b.ticket && b.local_seq > tx.limbo_certified) break;
    for (void* p : b.ptrs) ::operator delete(p);
    s.bump(s.tm_frees, b.ptrs.size());
    tx.limbo_pending -= b.ptrs.size();
    ++n;
  }
  if (n) {
    tx.limbo.erase(tx.limbo.begin(),
                   tx.limbo.begin() + static_cast<std::ptrdiff_t>(n));
    s.bump(s.limbo_drained, n);
    tx.slot->limbo_pending.store(tx.limbo_pending,
                                 std::memory_order_relaxed);
  }
}

}  // namespace

void quiesce_wait(TxDesc& tx, bool all_domains) {
  st(tx).bump(st(tx).quiesce_calls);
  const std::uint32_t ob = obs::flags();
  const RuntimeConfig& cfg = config();
  // The governor's stall detector also needs the wait measured when the
  // obs layer is dark.
  const bool stall_chk = cfg.watchdog_stall_ns != 0;
  const std::uint64_t t0 = (ob || stall_chk) ? now_ns() : 0;
  if (config().multi_domain && !all_domains) {
    // Ordering-only quiesce, filtered to the transaction's own domain
    // (ablation A3). Doesn't go through the grace machinery: tickets are
    // all-domain by construction.
    epoch_scan(tx, /*domain_filter=*/true);
  } else {
    grace_sync(tx);
  }
  if (ob || stall_chk) {
    const std::uint64_t dur = now_ns() - t0;
    if (stall_chk && dur >= cfg.watchdog_stall_ns) {
      st(tx).bump(st(tx).gov_stall_events);
      if (ob & obs::kTraceBit)
        trace::emit(trace::Event::WatchdogEscalate, AbortCause::None, tx.site,
                    0, 0, 0, dur);
    }
    if (ob & obs::kProfileBit)
      obs::site_counters(tx.slot_id, tx.site).quiesce_ns.add(dur);
    if (ob & obs::kTraceBit)
      trace::emit(trace::Event::Quiesce, AbortCause::None, tx.site, 0, 0, 0,
                  dur);
  }
}

bool htm_readers_possible() noexcept {
  ThreadSlot* slots = slot_table();
  const int hw = slot_high_water();
  const int self = my_slot_id();
  for (int i = 0; i < hw; ++i) {
    if (i == self) continue;
    // Acquire on seq synchronizes with the seq_cst epoch-enter RMW, making
    // the program-ordered-earlier htm_active store visible whenever the odd
    // seq is. A stale flag on an even slot is never consulted.
    const std::uint64_t s = slots[i].seq.load(std::memory_order_acquire);
    if ((s & 1) != 0 &&
        slots[i].htm_active.load(std::memory_order_relaxed) != 0)
      return true;
  }
  return false;
}

void tm_private_free(void* p) {
  if (!p) return;
  TxDesc& tx = TxDesc::current();
  TxStats& s = st(tx);
  if (tx.in_txn()) {
    // Inside a section the ordinary deferred-free path already provides the
    // right lifetime (post-commit limbo, or the serial exit's free once its
    // write lock has drained every reader).
    tx.frees.push_back(p);
    tx.freed_memory = true;
    return;
  }
  // Non-transactional privatizer (detach committed, now reclaiming). An
  // in-flight simulated-HTM reader validates lazily: it can issue one more
  // value-validated load of this block before noticing the commit sequence
  // moved, so the block must outlive every transaction in flight right now.
  // Park it in limbo under the next grace ticket; STM peers (and none at
  // all) license the immediate free the paper's identity promises.
  if (htm_readers_possible()) {
    tx.frees.push_back(p);
    limbo_enqueue(tx);
    count(tx, Ctr::priv_limbo_routed);
    limbo_drain(tx,
                /*force=*/tx.limbo_pending > config().limbo_max_pending);
  } else {
    ::operator delete(p);
    s.bump(s.priv_immediate_frees);
    // Opportunistic drain: release whatever a grace period already covers.
    if (!tx.limbo.empty()) limbo_drain(tx, /*force=*/false);
  }
}

// ---------------------------------------------------------------------------
// Shared speculative lifecycle
// ---------------------------------------------------------------------------

namespace {

/// Abort an attempt that died at begin, before read_lock/epoch_enter: there
/// is no engine state, epoch slot, or read-side registration to undo, so
/// tx_abort's rollback sequence would corrupt state it never acquired.
[[noreturn]] void tx_abort_at_begin(TxDesc& tx, AbortCause cause) {
  const std::uint32_t ob = obs::flags();
  count(tx, cause, ob);
  if (ob) obs_attempt_end(tx, ob, trace::Event::Abort, cause, false);
  tx.depth = 0;
  tx.last_abort = cause;
  std::longjmp(tx.env, static_cast<int>(cause));
}

}  // namespace

void tx_begin_speculative(TxDesc& tx) {
  tx.access =
      config().mode == ExecMode::Htm ? AccessMode::Htm : AccessMode::Stm;
  tx.is_serial = false;
  tx.depth = 1;
  tx.clear_logs();
  if (tx.access == AccessMode::Htm) {
    // Fallback-lock subscription: hardware elision reads the serial lock
    // inside the transaction at xbegin, so a pending writer kills the
    // attempt on the spot — it cannot be waited out the way the STM modes'
    // blocking read_lock waits it out. This is the begin-side half of the
    // lemming effect: under a cause-blind policy these instant aborts burn
    // the whole retry budget against a lock that has not been released yet.
    if (!serial_lock().try_read_lock(*tx.slot)) {
      const std::uint32_t ob = obs::flags();
      count(tx, Ctr::txn_starts, 1, ob);
      if (ob) tx.obs_t0 = now_ns();
      tx_abort_at_begin(tx, AbortCause::SerialPending);
    }
  } else {
    serial_lock().read_lock(*tx.slot);
  }
  epoch_enter(tx);
  const std::uint32_t ob = obs::flags();
  count(tx, Ctr::txn_starts, 1, ob);
  if (ob) {
    tx.obs_t0 = now_ns();
    if (ob & obs::kMetricsBit)
      tx.slot->txn_begin_ns.store(tx.obs_t0, std::memory_order_relaxed);
    if (ob & obs::kTraceBit)
      trace::emit(trace::Event::Begin, AbortCause::None, tx.site,
                  static_cast<std::uint16_t>(tx.attempts));
  }
  if (tx.access == AccessMode::Stm)
    stm_begin(tx);
  else
    htm_begin(tx);
  // After the engine begin so the abort rolls back a fully-formed attempt.
  maybe_inject(tx, fault::Hook::Begin);
}

void tx_commit_speculative(TxDesc& tx) {
  // Before publication: the injected abort must be able to roll back. This
  // generalizes the htm_spurious_abort_rate poll in htm_commit to every
  // engine and every injectable cause.
  maybe_inject(tx, fault::Hook::Commit);
  if (tx.access == AccessMode::Stm)
    stm_commit(tx);
  else
    htm_commit(tx);
  epoch_exit(tx);
  serial_lock().read_unlock(*tx.slot);
  const std::uint32_t ob = obs::flags();
  count(tx, Ctr::commits, 1, ob);
  if (ob) obs_attempt_end(tx, ob, trace::Event::Commit, AbortCause::None, true);
  if (tx.read_only) st(tx).bump(st(tx).commits_readonly);
  tx.depth = 0;
  tx.attempts = 0;
  tx.budget_used = 0;
  tx.txn_start_ns = 0;
  tx.last_abort = AbortCause::None;
}

void tx_post_commit(TxDesc& tx) {
  TxStats& s = st(tx);
  // --- deferred frees: limbo enqueue (Section IV-B, amortized) -----------
  // Freed blocks must outlive every transaction that could still read them
  // (zombie reads must land on live storage), and unlike the ordering
  // quiesce that grace must cover EVERY domain — a zombie in another
  // quiescence domain can still hold a reference. Instead of the old
  // synchronous all-domain quiesce per freeing commit, the batch parks in
  // limbo stamped with a grace ticket and drains below once a covering
  // period has elapsed. Enqueue happens BEFORE the ordering quiesce so
  // that quiesce — itself a full grace period when multi_domain is off —
  // certifies the batch and the common Always-policy commit still drains
  // its own frees immediately.
  if (!tx.frees.empty()) limbo_enqueue(tx);
  // --- quiescence decision (Section IV-B) -------------------------------
  bool need_q = false;
  if (tx.access == AccessMode::Stm) {
    switch (config().quiesce) {
      case QuiescePolicy::Always: need_q = true; break;
      case QuiescePolicy::WriterOnly: need_q = !tx.read_only; break;
      case QuiescePolicy::Never: need_q = false; break;
    }
    if (need_q && config().honor_noquiesce && tx.noquiesce_req) {
      if (tx.freed_memory) {
        // The allocator exception: memory headed back to the system must
        // outlive every concurrent transaction.
        s.bump(s.noquiesce_ignored_free);
      } else {
        need_q = false;
        s.bump(s.noquiesce_honored);
      }
    }
  }
  bool quiesced = false;
  if (need_q) {
    quiesce_wait(tx);
    quiesced = true;
  }
  // §IV-C auditor hooks: arm the privatization-hazard tracker on unquiesced
  // STM commits; clear it once this thread has genuinely quiesced.
  if (audit::enabled() && tx.access == AccessMode::Stm) {
    if (quiesced)
      audit::on_quiesced(tx);
    else
      audit::on_unquiesced_commit(tx);
  }
  // --- limbo drain --------------------------------------------------------
  // Release whatever a grace period already covers; force a synchronous
  // one only when the list outgrows the configured bound. Engines that
  // never quiesce for ordering (HTM, the Never policy) thus pay one grace
  // per limbo_max_pending frees instead of one per freeing commit.
  // The fault plan is consulted on EVERY post-commit (not just ones with a
  // non-empty limbo) so the injection event counter advances at a rate that
  // depends only on this thread's workload, never on grace timing.
  bool fault_flush = false;
  if (fault::active() && fault::should_force_flush()) {
    fault_flush = !tx.limbo.empty();
    if (fault_flush) s.bump(s.fault_forced_flush);
  }
  if (!tx.limbo.empty())
    limbo_drain(tx, /*force=*/fault_flush ||
                        tx.limbo_pending > config().limbo_max_pending);
  // --- deferred actions (Section VI-c logging, condvar ops) ---------------
  for (auto& fn : tx.deferred) {
    fn();
    s.bump(s.deferred_run);
  }
  tx.deferred.clear();
  tx.allocs.clear();  // committed allocations are now owned by the program
}

void tx_abort(TxDesc& tx, AbortCause cause) {
  if (tx.access == AccessMode::Stm) stm_rollback(tx);
  // HTM rollback is trivial: buffered writes are simply dropped.
  epoch_exit(tx);
  serial_lock().read_unlock(*tx.slot);
  const std::uint32_t ob = obs::flags();
  count(tx, cause, ob);
  if (ob) obs_attempt_end(tx, ob, trace::Event::Abort, cause, true);
  for (void* p : tx.allocs) ::operator delete(p);
  tx.clear_logs();
  tx.depth = 0;
  tx.last_abort = cause;
  std::longjmp(tx.env, static_cast<int>(cause));
}

void tx_rollback_for_exception(TxDesc& tx) {
  if (tx.is_serial) return;  // serial sections are irrevocable; no rollback
  if (tx.access == AccessMode::Stm) stm_rollback(tx);
  epoch_exit(tx);
  serial_lock().read_unlock(*tx.slot);
  const std::uint32_t ob = obs::flags();
  count(tx, AbortCause::UserExplicit, ob);
  if (ob)
    obs_attempt_end(tx, ob, trace::Event::Abort, AbortCause::UserExplicit,
                    true);
  for (void* p : tx.allocs) ::operator delete(p);
  tx.clear_logs();
  tx.depth = 0;
  tx.attempts = 0;
  tx.budget_used = 0;
  tx.txn_start_ns = 0;
}

// ---------------------------------------------------------------------------
// Serial (irrevocable) execution
// ---------------------------------------------------------------------------

void tx_serial_enter(TxDesc& tx) {
  tx.access = AccessMode::Direct;
  tx.is_serial = true;
  tx.depth = 1;
  tx.clear_logs();
  serial_lock().write_lock(*tx.slot);
  epoch_enter(tx);
  const std::uint32_t ob = obs::flags();
  if (ob) {
    tx.obs_t0 = now_ns();
    if (ob & obs::kMetricsBit)
      tx.slot->txn_begin_ns.store(tx.obs_t0, std::memory_order_relaxed);
    if (ob & obs::kTraceBit)
      trace::emit(trace::Event::SerialEnter, AbortCause::None, tx.site,
                  static_cast<std::uint16_t>(tx.attempts));
  }
}

void tx_serial_exit(TxDesc& tx) {
  // No concurrent transactions exist: frees are immediate, no quiescence.
  for (void* p : tx.frees) ::operator delete(p);
  if (!tx.frees.empty()) st(tx).bump(st(tx).tm_frees, tx.frees.size());
  tx.frees.clear();
  // The write lock drained every reader, so a full grace period has
  // trivially elapsed for anything this thread had in limbo: certify and
  // drain it while the storage is provably unreferenced.
  if (!tx.limbo.empty()) {
    tx.limbo_certified = tx.limbo_seq;
    limbo_drain(tx, /*force=*/false);
  }
  epoch_exit(tx);
  serial_lock().write_unlock(*tx.slot);
  const std::uint32_t ob = obs::flags();
  count(tx, Ctr::serial_commits, 1, ob);
  if (ob)
    obs_attempt_end(tx, ob, trace::Event::SerialExit, AbortCause::None, false);
  for (auto& fn : tx.deferred) {
    fn();
    st(tx).bump(st(tx).deferred_run);
  }
  tx.deferred.clear();
  tx.allocs.clear();
  tx.depth = 0;
  tx.is_serial = false;
  tx.attempts = 0;
  tx.budget_used = 0;
  tx.txn_start_ns = 0;
}

// ---------------------------------------------------------------------------
// Word accessors
// ---------------------------------------------------------------------------

std::uint64_t tx_read_word(TxDesc& tx, const std::atomic<std::uint64_t>& cell) {
  switch (tx.access) {
    case AccessMode::Direct:
      return cell.load(std::memory_order_relaxed);
    case AccessMode::Stm:
      maybe_inject(tx, fault::Hook::Read);
      return stm_read(tx, cell);
    case AccessMode::Htm:
      maybe_inject(tx, fault::Hook::Read);
      return htm_read(tx, cell);
  }
  __builtin_unreachable();
}

void tx_write_word(TxDesc& tx, std::atomic<std::uint64_t>& cell,
                   std::uint64_t value) {
  switch (tx.access) {
    case AccessMode::Direct:
      cell.store(value, std::memory_order_relaxed);
      return;
    case AccessMode::Stm:
      maybe_inject(tx, fault::Hook::Write);
      stm_write(tx, cell, value);
      return;
    case AccessMode::Htm:
      maybe_inject(tx, fault::Hook::Write);
      htm_write(tx, cell, value);
      return;
  }
}

// ---------------------------------------------------------------------------

void tx_backoff(TxDesc& tx) {
  // Randomized exponential backoff, capped. The delay grows across
  // ATTEMPTS only: each iteration pauses at one constant level. (Passing
  // the loop index escalated every iteration past 3 into a sched_yield,
  // compounding the exponential and stalling late retries for
  // milliseconds.) Late attempts deliberately yield so the scheme still
  // degrades gracefully on oversubscribed cores.
  const unsigned cap = 1u << (tx.attempts < 10 ? tx.attempts : 10);
  const unsigned spins =
      static_cast<unsigned>(tx.backoff_rng.below(cap ? cap : 1));
  const unsigned level = tx.attempts > 6 ? 8 : 0;
  for (unsigned i = 0; i < spins; ++i) spin_pause(level);
}

void tm_fence() {
  // A quiescence fence from plain code: wait for every in-flight
  // transaction (in our domain view) to commit or abort.
  quiesce_wait(TxDesc::current());
}

TxDesc::~TxDesc() {
  // Thread exit with batches still in limbo: nobody will be left to drain
  // them lazily, so flush through a forced grace period now. Runs before
  // the thread's SlotLease destructor (current() constructs the descriptor
  // inside the lease's initializer), so slot and stats are still valid.
  // A moved-from descriptor has an empty limbo and skips this.
  if (!limbo.empty()) limbo_drain(*this, /*force=*/true);
}

TxDesc& TxDesc::current() noexcept {
  thread_local TxDesc desc = [] {
    TxDesc d;
    d.slot_id = my_slot_id();
    d.slot = &slot_table()[d.slot_id];
    d.stats = &d.slot->stats;
    d.backoff_rng.reseed(0x9E3779B9u ^ static_cast<unsigned>(d.slot_id));
    return d;
  }();
  // The thread holds its slot for life (its lease gives the slot back only
  // at thread exit), so this binding never goes stale.
  return desc;
}

}  // namespace tle
