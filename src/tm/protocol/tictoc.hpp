// TicToc commit protocol: timestamped OCC, write-back. The third instance of
// the StmProtocol seam (protocol.hpp) — and the one with no global clock at
// all.
//
// Data layout (meta.hpp): each orec in TicToc's own table packs a version's
// {write_ts, read_ts} into one word — wts is when the current version was
// created, rts is the latest timestamp the version is certified valid
// through (rts >= wts always). A version is an interval [wts, rts] in
// timestamp space; successive versions of a word occupy disjoint, increasing
// intervals because a committer picks cts > rts(prev).
//
// The running invariant that makes the protocol OPAQUE (safe for
// unsandboxed, longjmp-rolled-back C++ bodies, unlike commit-time-validated
// database TicToc): every logged read's version interval covers the
// transaction's coverage timestamp tt_rv. All logged values therefore equal
// the database state at the single logical time tt_rv — a consistent
// snapshot even for attempts that are already doomed. Reads maintain it two
// ways:
//   * a word with wts > tt_rv advances tt_rv to that wts and re-certifies
//     the whole read set at the new tt_rv (the "extension" — where TicToc
//     commits schedules ml_wt's encounter-time locking aborts);
//   * a word whose rts < tt_rv has its rts CAS-extended to tt_rv before the
//     entry is accepted (cheap; needed only until the version's rts catches
//     up with active readers).
// Certification of one entry at ts: same version still published (wts
// unchanged) -> CAS rts up to ts if needed; version replaced but the VALUE
// re-published unchanged with wts <= ts -> adopt the new word and retry
// (the value-based tolerance that also absorbs release-to-same-word abort
// restores); otherwise the snapshot is dead -> Validation abort.
//
// Writes buffer locally (write-back): no orec is touched until commit, so a
// writer holds no lock while the user body runs — the structural advantage
// over ml_wt under read-mostly contention. Commit: lock the write-set orecs
// in ADDRESS ORDER (deadlock-free, bounded waits), pick
// cts = max(tt_rv, rts(prev)+1 over the write set), certify the read set at
// cts (reads of own-write-set words need only wts-equality/value: the read
// saw the pre-state our cts-version directly replaces), publish the buffered
// values, release every orec at {wts=cts, rts=cts}. No fetch_add on any
// global line — timestamps are allocated entirely from the footprint.
#pragma once

#include <algorithm>

#include "tm/protocol/detail.hpp"
#include "tm/serial_lock.hpp"
#include "util/align.hpp"

namespace tle::protocol {

struct TicToc {
  static constexpr StmAlgo kAlgo = StmAlgo::TicToc;

  /// Bounded wait bookkeeping for a locked orec: first blocked pass counts a
  /// tictoc_wts_waits episode; an expired budget counts a timeout and aborts
  /// with Conflict (the governor backs off and retries — the lock holder is
  /// mid-publication and clears on its own).
  static void lock_wait(TxDesc& tx, unsigned& spin, bool& counted) {
    if (!counted) {
      counted = true;
      count(tx, Ctr::tictoc_wts_waits);
    }
    if (spin >= config().park_spin_limit) {
      count(tx, Ctr::tictoc_lock_timeouts);
      tx_abort(tx, AbortCause::Conflict);
    }
    spin_pause(spin++);
  }

  [[noreturn]] static void certify_fail(TxDesc& tx) {
    count(tx, Ctr::tictoc_extension_fails);
    tx_abort(tx, AbortCause::Validation);
  }

  /// Certify that (addr, val), read under orec word `seen`, is valid at
  /// timestamp `ts`: the published version must cover ts, CAS-extending its
  /// rts when it falls short. Returns the (possibly adopted) orec word the
  /// entry is now certified under; aborts if the value is dead at ts.
  static std::uint64_t certify(TxDesc& tx, std::atomic<std::uint64_t>& o,
                               std::uint64_t seen,
                               const std::atomic<std::uint64_t>& addr,
                               std::uint64_t val, std::uint64_t ts) {
    unsigned spin = 0;
    bool counted = false;
    std::uint64_t cur = o.load(std::memory_order_acquire);
    for (;;) {
      if (tt_locked(cur)) {
        // A committer is inside its lock->publish window; wait it out
        // (bounded) rather than guess which side of the publication we are.
        lock_wait(tx, spin, counted);
        cur = o.load(std::memory_order_acquire);
        continue;
      }
      if (tt_wts(cur) == tt_wts(seen)) {
        if (tt_rts(cur) >= ts) return cur;  // version already covers ts
        const std::uint64_t extended = tt_make(tt_wts(cur), ts);
        if (o.compare_exchange_weak(cur, extended,
                                    std::memory_order_acq_rel)) {
          count(tx, Ctr::tictoc_extensions);
          return extended;
        }
        continue;  // CAS refreshed cur; re-examine
      }
      // The version was replaced since the read. If the replacement carries
      // the SAME value and exists at ts (wts <= ts), adopt it: the data the
      // body computed on is still the data at ts. The orec re-check pins the
      // value load to the adopted word (wts only grows, so no word ABA —
      // and an aborting committer restores its pre-lock word with memory
      // untouched, which this test correctly accepts).
      if (tt_wts(cur) <= ts && addr.load(std::memory_order_acquire) == val &&
          o.load(std::memory_order_acquire) == cur) {
        seen = cur;
        continue;
      }
      certify_fail(tx);
    }
  }

  /// Re-certify the whole read set at `ts` (skipping orecs the commit path
  /// already holds locked — the caller validates those against the pre-lock
  /// word). On return every entry covers ts.
  static void certify_reads(TxDesc& tx, std::uint64_t ts) {
    for (TicTocRead& r : tx.tt_reads) {
      const std::uint32_t own = tx.owned_idx.find(r.orec);
      if (own != AddrIndex::kNone) {
        // Own-locked write orec that we also read: the read saw the
        // pre-state our cts-version directly replaces, so it needs no rts
        // coverage — only proof that no foreign version intervened: same
        // version as read (wts equal), or memory still holds the value
        // (write-back leaves it clean until publication).
        const std::uint64_t prev = tx.owned[own].prev;
        if (tt_wts(prev) == tt_wts(r.seen) ||
            r.addr->load(std::memory_order_acquire) == r.val)
          continue;
        certify_fail(tx);
      }
      r.seen = certify(tx, *r.orec, r.seen, *r.addr, r.val, ts);
    }
  }

  static void begin(TxDesc& tx) {
    // clear_logs() reset tt_rv to 0; the first read establishes coverage.
  }

  // noinline: read/write instantiate inside the per-access dispatch in
  // tx_read_word/tx_write_word; keeping the OCC bodies out of line leaves
  // the default ml_wt fast path as tight as it was before the seam (the
  // call is intra-TU and fully predictable — noise next to the sandwich
  // loads these bodies perform anyway).
  [[gnu::noinline]] static std::uint64_t read(
      TxDesc& tx, const std::atomic<std::uint64_t>& cell) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    TxStats& s = detail::st(tx);
    // Read-own-write from the buffer: write-back means memory still holds
    // the pre-state, so the buffered value is the only correct answer.
    std::uint32_t idx = tx.tt_write_idx.find(&cell);
    if (idx != AddrIndex::kNone) return tx.tt_writes[idx].val;
    // Repeat read: the logged value is certified at tt_rv; re-reading shared
    // memory could only disagree with the snapshot.
    idx = tx.tt_read_idx.find(&cell);
    if (idx != AddrIndex::kNone) {
      s.bump(s.stm_read_dedup);
      return tx.tt_reads[idx].val;
    }
    std::atomic<std::uint64_t>& o = tictoc_orec_for(&cell);
    unsigned spin = 0;
    bool counted = false;
    std::uint64_t v1, val;
    for (;;) {
      v1 = o.load(std::memory_order_acquire);
      if (tt_locked(v1)) {
        lock_wait(tx, spin, counted);
        continue;
      }
      val = cell.load(std::memory_order_acquire);
      if (o.load(std::memory_order_acquire) == v1) break;
      spin_pause(spin++);  // a commit landed between the two orec loads
    }
    if (tt_wts(v1) > tx.tt_rv) {
      // Fresher version than our coverage: advance tt_rv and drag the whole
      // read set along — the in-flight face of TicToc's extension, and what
      // keeps doomed snapshots consistent (opacity).
      certify_reads(tx, tt_wts(v1));
      tx.tt_rv = tt_wts(v1);
    } else if (tt_rts(v1) < tx.tt_rv) {
      // Version predates our coverage point: extend ITS rts up to tt_rv so
      // the new entry joins the same consistent cut.
      v1 = certify(tx, o, v1, cell, val, tx.tt_rv);
    }
    tx.tt_read_idx.insert(&cell,
                          static_cast<std::uint32_t>(tx.tt_reads.size()));
    tx.tt_reads.push_back({&o, &cell, v1, val});
    return val;
  }

  [[gnu::noinline]] static void write(TxDesc& tx,
                                      std::atomic<std::uint64_t>& cell,
                                      std::uint64_t value) {
    if (serial_lock().serial_requested())
      tx_abort(tx, AbortCause::SerialPending);
    // In-place upsert: one buffer entry per cell, last write wins. No shared
    // word is touched — the write set is invisible until commit.
    const std::uint32_t idx = tx.tt_write_idx.find(&cell);
    if (idx != AddrIndex::kNone) {
      tx.tt_writes[idx].val = value;
      return;
    }
    tx.tt_write_idx.insert(&cell,
                           static_cast<std::uint32_t>(tx.tt_writes.size()));
    tx.tt_writes.push_back({&cell, &tictoc_orec_for(&cell), value});
    tx.read_only = false;
  }

  static void commit(TxDesc& tx) {
    if (tx.tt_writes.empty()) {
      // Read-only: the running invariant already certifies every read at
      // tt_rv — the commit is free, no validation pass, no shared writes.
      return;
    }
    TxStats& s = detail::st(tx);
    // Distinct write-set orecs in ADDRESS order: ordered acquisition is
    // deadlock-free among committers, and the bounded lock wait breaks the
    // residual cross-wait against a preempted lock holder.
    auto& order = tx.tt_lock_order;
    order.clear();
    for (const TicTocWrite& w : tx.tt_writes) order.push_back(w.orec);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    // Lock phase. Each acquisition is logged in owned/owned_idx BEFORE the
    // next is attempted, so an abort anywhere inside the window (lock
    // timeout, failed certification, injected fault) restores exactly the
    // words taken so far via rollback().
    for (std::atomic<std::uint64_t>* o : order) {
      unsigned spin = 0;
      bool counted = false;
      std::uint64_t v = o->load(std::memory_order_acquire);
      for (;;) {
        if (tt_locked(v)) {
          lock_wait(tx, spin, counted);
          v = o->load(std::memory_order_acquire);
          continue;
        }
        if (o->compare_exchange_weak(v, v | kTtLockBit,
                                     std::memory_order_acq_rel)) {
          tx.owned_idx.insert(o,
                              static_cast<std::uint32_t>(tx.owned.size()));
          tx.owned.push_back({o, v});
          break;
        }
      }
    }
    // The lock->certify->publish window is a first-class fault-injection
    // decision point: an injected Validation abort here exercises the
    // locked-rollback path, a delay widens the window other committers and
    // certifying readers race against.
    detail::maybe_inject(tx, fault::Hook::TtCommit);
    detail::maybe_perturb(s, fault::Hook::TtCommit);
    // Commit timestamp from the footprint alone: above every version this
    // write set replaces, and no earlier than the read set's coverage.
    std::uint64_t cts = tx.tt_rv;
    for (const OwnedOrec& o : tx.owned)
      if (tt_rts(o.prev) + 1 > cts) cts = tt_rts(o.prev) + 1;
    // Reads must hold at cts (extension happens here when cts outran rts).
    certify_reads(tx, cts);
    // Publish: values first, then each orec releases to {wts=cts, rts=cts}.
    // The release store orders the value writes before the new word, so a
    // reader's sandwich (orec, value, orec re-check) never sees a mix.
    for (const TicTocWrite& w : tx.tt_writes)
      w.addr->store(w.val, std::memory_order_relaxed);
    const std::uint64_t pub = tt_make(cts, cts);
    for (const OwnedOrec& o : tx.owned)
      o.orec->store(pub, std::memory_order_release);
  }

  static void rollback(TxDesc& tx) noexcept {
    // Write-back: memory was never touched, so rollback only releases any
    // commit-window locks by restoring the exact pre-lock words. Restoring
    // the same word is safe (no incarnation needed): concurrent certifiers
    // validate by value, and the value genuinely did not change.
    for (const OwnedOrec& o : tx.owned)
      o.orec->store(o.prev, std::memory_order_release);
  }

  static std::uint32_t rset_size(const TxDesc& tx) noexcept {
    return static_cast<std::uint32_t>(tx.tt_reads.size());
  }
  static std::uint32_t wset_size(const TxDesc& tx) noexcept {
    return static_cast<std::uint32_t>(tx.tt_writes.size());
  }
};

}  // namespace tle::protocol
