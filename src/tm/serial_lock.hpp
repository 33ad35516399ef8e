// The serial/irrevocability lock — the mechanism GCC's libitm uses both for
// synchronized-block irrevocability and for its serialize-on-repeated-abort
// progress guarantee (paper Section II-B), and the fallback path of TLE with
// (simulated) HTM.
//
// Structure: a distributed reader–writer lock. Every speculative transaction
// holds the read side for its whole duration via a per-thread flag in its
// registry slot (so uncontended entry is a single store + load, no shared
// cache-line ping-pong). A transaction that must run irrevocably takes the
// write side, which (a) publishes a "pending" bit that running speculative
// transactions poll on every access — aborting them promptly, the analog of
// TSX's lock-subscription abort — and (b) waits for every reader flag to
// drop before proceeding in full isolation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "tm/fault/fault.hpp"
#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "util/timing.hpp"

namespace tle {

class SerialLock {
 public:
  /// Enter the read side (speculative transaction begin). Blocks while a
  /// writer is pending or active. Waiting is spin-then-park: after the
  /// bounded spin, excluded readers sleep on `pending_`, which every
  /// write_unlock changes (fetch_sub) and notifies when `rd_parked_` is up.
  void read_lock(ThreadSlot& me) noexcept {
    for (;;) {
      me.sl_reader.store(1, std::memory_order_seq_cst);
      // pending_ stays nonzero for the full pending+active writer window.
      if (pending_.load(std::memory_order_seq_cst) == 0) return;
      // A writer is pending/active: back out and wait politely. The
      // back-out must mirror read_unlock: a draining writer may already
      // have parked on our sl_reader (it saw the store above), so the
      // plain store alone would never wake it — missed-wakeup deadlock.
      // Perturbation point: holding the raised flag here gives a draining
      // writer time to pass its spin limit and park on it, making that
      // missed-wakeup interleaving deterministically reachable.
      if (fault::active() && fault::perturb(fault::Hook::SlReadBackout))
        me.stats.bump(me.stats.fault_delays);
      read_unlock(me);
      unsigned spin = 0;
      const unsigned spin_limit = config().park_spin_limit;
      for (;;) {
        const std::uint32_t p = pending_.load(std::memory_order_acquire);
        if (p == 0) break;
        if (spin < spin_limit) {
          spin_pause(spin++);
          continue;
        }
        // Park until pending_ moves. Dekker with write_unlock: raise
        // rd_parked_, re-read pending_ at seq_cst, then sleep — the
        // unlocking writer's fetch_sub precedes its rd_parked_ load, so
        // one side always sees the other. Any pending_ change wakes us;
        // the outer loop re-checks for zero.
        rd_parked_.fetch_add(1, std::memory_order_seq_cst);
        if (pending_.load(std::memory_order_seq_cst) == p) {
          me.stats.bump(me.stats.parked_waits);
          pending_.wait(p, std::memory_order_seq_cst);
        }
        rd_parked_.fetch_sub(1, std::memory_order_seq_cst);
      }
    }
  }

  /// Non-blocking read-side entry for HTM begin. Real hardware elision
  /// subscribes to the fallback lock inside the transaction: a pending or
  /// active serial writer aborts the speculative attempt immediately rather
  /// than being waited out. Returns false (after backing the reader flag
  /// out) when a writer holds or has requested the lock.
  bool try_read_lock(ThreadSlot& me) noexcept {
    me.sl_reader.store(1, std::memory_order_seq_cst);
    if (pending_.load(std::memory_order_seq_cst) == 0) return true;
    read_unlock(me);
    return false;
  }

  void read_unlock(ThreadSlot& me) noexcept {
    // seq_cst, not release: the Dekker edge with a draining writer's park
    // in write_lock — either this store is visible to the writer's re-read
    // of sl_reader after it raised me.parked, or the load below sees the
    // raised counter and notifies.
    me.sl_reader.store(0, std::memory_order_seq_cst);
    if (me.parked.load(std::memory_order_seq_cst) != 0)
      me.sl_reader.notify_all();
  }

  /// Acquire the write side. Caller must NOT hold the read side.
  void write_lock(ThreadSlot& me) noexcept {
    // Metrics gauges (wait/hold time) are stamped only while kMetricsBit is
    // set, so the dark path pays the one relaxed flag load and nothing else.
    const bool metered = obs::flags() & obs::kMetricsBit;
    const std::uint64_t wait_t0 = metered ? now_ns() : 0;
    pending_.fetch_add(1, std::memory_order_seq_cst);
    const unsigned spin_limit = config().park_spin_limit;
    // Compete for the writer token; losers park on writer_ (write_unlock
    // zeroes and notifies it unconditionally — writer handoff is rare).
    unsigned spin = 0;
    for (;;) {
      std::uint32_t expected = 0;
      if (writer_.compare_exchange_weak(expected, 1,
                                        std::memory_order_acq_rel))
        break;
      if (spin < spin_limit) {
        spin_pause(spin++);
        continue;
      }
      wr_parked_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t w = writer_.load(std::memory_order_seq_cst);
      if (w != 0) {
        me.stats.bump(me.stats.parked_waits);
        writer_.wait(w, std::memory_order_seq_cst);
      }
      wr_parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
    // Wait for every reader to drain; new readers see pending_ and stay
    // out. Per straggler: bounded spin, then park on its sl_reader flag
    // (read_unlock notifies when the slot's parked counter is raised).
    const int hw = slot_high_water();
    ThreadSlot* slots = slot_table();
    for (int i = 0; i < hw; ++i) {
      if (&slots[i] == &me) continue;
      unsigned s = 0;
      while (slots[i].sl_reader.load(std::memory_order_seq_cst) != 0) {
        if (s < spin_limit) {
          spin_pause(s++);
          continue;
        }
        // Perturbation point: a delay between raising parked and the
        // re-read stretches the Dekker window against a backing-out reader.
        if (fault::active() && fault::perturb(fault::Hook::SlWriteDrain))
          me.stats.bump(me.stats.fault_delays);
        slots[i].parked.fetch_add(1, std::memory_order_seq_cst);
        if (slots[i].sl_reader.load(std::memory_order_seq_cst) != 0) {
          me.stats.bump(me.stats.parked_waits);
          slots[i].sl_reader.wait(1, std::memory_order_seq_cst);
        }
        slots[i].parked.fetch_sub(1, std::memory_order_seq_cst);
      }
    }
    if (metered) {
      const std::uint64_t now = now_ns();
      wr_wait_ns_.fetch_add(now - wait_t0, std::memory_order_relaxed);
      wr_acquires_.fetch_add(1, std::memory_order_relaxed);
      wr_held_since_.store(now, std::memory_order_relaxed);
    }
  }

  void write_unlock(ThreadSlot& me) noexcept {
    // Hold time closes against the stamp write_lock left (0 when metrics
    // were off at acquisition — then the hold is simply not accounted).
    const std::uint64_t since =
        wr_held_since_.load(std::memory_order_relaxed);
    if (since) {
      wr_hold_ns_.fetch_add(now_ns() - since, std::memory_order_relaxed);
      wr_held_since_.store(0, std::memory_order_relaxed);
    }
    writer_.store(0, std::memory_order_seq_cst);
    if (wr_parked_.load(std::memory_order_seq_cst) != 0) writer_.notify_all();
    // Perturbation point: between the writer-token release and the pending_
    // drop, a successor writer can take the token while excluded readers
    // still see pending_ != 0 — the handoff window the Dekker edges below
    // must survive.
    if (fault::active() && fault::perturb(fault::Hook::SlWriteUnlock))
      me.stats.bump(me.stats.fault_delays);
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    if (rd_parked_.load(std::memory_order_seq_cst) != 0)
      pending_.notify_all();
  }

  /// Governor drain wait: block (without joining the read side) until the
  /// pending+active writer window clears or `timeout_ns` elapses. Waiting is
  /// a bounded spin followed by short timed sleeps — atomic::wait has no
  /// deadline in C++20, and the serial window we are waiting out lasts
  /// microseconds to scheduler quanta, so 50 µs slices lose nothing. Returns
  /// true iff pending_ reached zero; `waited_ns` (if non-null) receives the
  /// measured wait for the caller's stall accounting.
  bool wait_drained(std::uint64_t timeout_ns,
                    std::uint64_t* waited_ns = nullptr) noexcept {
    if (pending_.load(std::memory_order_acquire) == 0) {
      if (waited_ns) *waited_ns = 0;
      return true;
    }
    const std::uint64_t t0 = now_ns();
    const unsigned spin_limit = config().park_spin_limit;
    unsigned spin = 0;
    bool drained = false;
    for (;;) {
      if (pending_.load(std::memory_order_acquire) == 0) {
        drained = true;
        break;
      }
      if (now_ns() - t0 >= timeout_ns) break;
      if (spin < spin_limit) {
        spin_pause(spin++);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (waited_ns) *waited_ns = now_ns() - t0;
    return drained;
  }

  /// Polled by speculative transactions on every access: true if they should
  /// abort to let a serial transaction through.
  bool serial_requested() const noexcept {
    return pending_.load(std::memory_order_relaxed) != 0;
  }

  bool writer_active() const noexcept {
    return writer_.load(std::memory_order_acquire) != 0;
  }

  // --- interval-metrics gauges (obs/metrics.cpp) -------------------------
  // Write-side totals, covering only periods when obs::kMetricsBit was set
  // at acquisition. All relaxed: cold path + sampler reads.

  /// Cumulative time writers spent acquiring (pending -> all readers out).
  std::uint64_t write_wait_ns_total() const noexcept {
    return wr_wait_ns_.load(std::memory_order_relaxed);
  }

  /// Cumulative time the write side was held.
  std::uint64_t write_hold_ns_total() const noexcept {
    return wr_hold_ns_.load(std::memory_order_relaxed);
  }

  /// Metered write-side acquisitions.
  std::uint64_t write_acquires() const noexcept {
    return wr_acquires_.load(std::memory_order_relaxed);
  }

  /// now_ns() stamp of the current writer's acquisition, 0 when free (or
  /// when the hold is unmetered).
  std::uint64_t write_held_since_ns() const noexcept {
    return wr_held_since_.load(std::memory_order_relaxed);
  }

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> pending_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> writer_{0};
  /// Readers parked on pending_ / writers parked on writer_. Checked by the
  /// corresponding unlock before notify_all so the uncontended paths stay
  /// syscall-free.
  alignas(kCacheLine) std::atomic<std::uint32_t> rd_parked_{0};
  std::atomic<std::uint32_t> wr_parked_{0};

  // Metrics accumulators (see accessors above). Cold: touched only on the
  // serial write path while metering is on, read by the sampler.
  std::atomic<std::uint64_t> wr_wait_ns_{0};
  std::atomic<std::uint64_t> wr_hold_ns_{0};
  std::atomic<std::uint64_t> wr_acquires_{0};
  std::atomic<std::uint64_t> wr_held_since_{0};
};

namespace detail {
inline constinit SerialLock g_serial_lock;
}

/// The process-wide serial lock.
inline SerialLock& serial_lock() noexcept { return detail::g_serial_lock; }

}  // namespace tle
