#include "sync/tx_condvar.hpp"

#include <semaphore.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <deque>
#include <mutex>

#include "tm/config.hpp"
#include "tm/fault/fault.hpp"
#include "tm/registry.hpp"

// sem_clockwait appeared in glibc 2.30; with it, timed waits measure
// against CLOCK_MONOTONIC, so a wall-clock step (NTP, settimeofday) can
// neither fire a wait_for early nor stall it for the step duration. Older
// libcs fall back to the POSIX-portable CLOCK_REALTIME + sem_timedwait and
// keep that (documented) sensitivity.
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 30))
#define TLE_HAVE_SEM_CLOCKWAIT 1
#else
#define TLE_HAVE_SEM_CLOCKWAIT 0
#endif

namespace tle {

namespace {

/// Per-thread wait slot: one semaphore a thread parks on. A thread waits on
/// at most one condvar at a time (waits are the last action of a section).
struct WaitSlot {
  sem_t sem;

  WaitSlot() { sem_init(&sem, 0, 0); }
  ~WaitSlot() { sem_destroy(&sem); }
};

WaitSlot& my_wait_slot() {
  thread_local WaitSlot slot;
  return slot;
}

constexpr int kPendingCap = kMaxThreads;

constexpr clockid_t kWaitClock =
    TLE_HAVE_SEM_CLOCKWAIT ? CLOCK_MONOTONIC : CLOCK_REALTIME;

timespec deadline_after(std::chrono::nanoseconds timeout) {
  timespec abs;
  clock_gettime(kWaitClock, &abs);
  const auto total = std::chrono::nanoseconds(abs.tv_nsec) + timeout;
  abs.tv_sec += static_cast<time_t>(
      std::chrono::duration_cast<std::chrono::seconds>(total).count());
  abs.tv_nsec = static_cast<long>((total % std::chrono::seconds(1)).count());
  return abs;
}

int sem_wait_until(sem_t* sem, const timespec* abs) {
#if TLE_HAVE_SEM_CLOCKWAIT
  return sem_clockwait(sem, kWaitClock, abs);
#else
  return sem_timedwait(sem, abs);
#endif
}

}  // namespace

struct tx_condvar::Impl {
  // Touched only from post-commit deferred actions and plain code — never
  // inside a speculative region — so an ordinary mutex is safe and simple.
  mutable std::mutex m;
  std::deque<WaitSlot*> waiters;
  int pending = 0;

  /// Commit-ordered count of waits announced by wait()/wait_for(). Written
  /// transactionally by waiters; the signal paths read the raw cell under
  /// `m`. Because announcing makes the waiter a WRITER, TM serialization
  /// orders it against the notifier's predicate write: a waiter whose
  /// predicate read went stale aborts and re-checks instead of committing a
  /// doomed wait, and a waiter that did commit before the notifier is
  /// ordered before the notifier's commit-clock RMW — so by the time the
  /// notifier's deferred signal runs, its load below observes the intent.
  tm_var<std::uint64_t> intents_{0};

  /// Announced waits that have since reached enqueue() (guarded by m).
  std::uint64_t absorbed_ = 0;

  /// Waiters committed but not yet enqueued — the only threads a banked
  /// signal can be for. Call with `m` held. The raw() read may run
  /// concurrently with a speculative (not-yet-committed) announce; at worst
  /// that overcounts in-flight waiters by the speculation, banking a signal
  /// that becomes a spurious wakeup — absorbed by the re-check loop, never
  /// a lost one.
  int bank_limit_locked() const noexcept {
    const std::uint64_t announced =
        intents_.raw().load(std::memory_order_acquire);
    const std::uint64_t in_flight =
        announced > absorbed_ ? announced - absorbed_ : 0;
    return static_cast<int>(
        in_flight < static_cast<std::uint64_t>(kPendingCap)
            ? in_flight
            : static_cast<std::uint64_t>(kPendingCap));
  }

  /// Returns true if the caller should actually block (it was enqueued);
  /// false if a banked signal was consumed.
  bool enqueue(WaitSlot* s) {
    std::lock_guard<std::mutex> g(m);
    ++absorbed_;
    if (pending > 0) {
      --pending;
      return false;
    }
    waiters.push_back(s);
    return true;
  }

  /// Try to withdraw after a timeout. True if we removed ourselves (real
  /// timeout); false if a signal already claimed us (must absorb the post).
  bool withdraw(WaitSlot* s) {
    std::lock_guard<std::mutex> g(m);
    for (auto it = waiters.begin(); it != waiters.end(); ++it) {
      if (*it == s) {
        waiters.erase(it);
        return true;
      }
    }
    return false;
  }

  void signal_one() {
    WaitSlot* target = nullptr;
    {
      std::lock_guard<std::mutex> g(m);
      if (!waiters.empty()) {
        target = waiters.front();
        waiters.pop_front();
      } else if (pending < bank_limit_locked()) {
        ++pending;
      }
    }
    if (target) sem_post(&target->sem);
  }

  void signal_all() {
    // Each thread waits on one condvar at a time, so at most kMaxThreads
    // waiters: a stack array holds them, and notify_all allocates nothing.
    WaitSlot* grabbed[kMaxThreads];
    std::size_t count = 0;
    {
      std::lock_guard<std::mutex> g(m);
      count = waiters.size();
      assert(count <= kMaxThreads);
      std::copy(waiters.begin(), waiters.end(), grabbed);
      waiters.clear();
      // Re-bank exactly one signal per committed-but-not-yet-enqueued
      // waiter (every such waiter is counted by bank_limit_locked, and any
      // previously banked signal was for a waiter still in that set — so
      // replacing the old bank cannot drop a needed signal). A notify_all
      // with nobody in flight banks nothing.
      pending = bank_limit_locked();
    }
    for (std::size_t i = 0; i < count; ++i) sem_post(&grabbed[i]->sem);
  }
};

tx_condvar::tx_condvar() : impl_(new Impl) {}
tx_condvar::~tx_condvar() { delete impl_; }

clockid_t tx_condvar::timed_wait_clock() noexcept { return kWaitClock; }

/// Transactionally record that this transaction will block after commit.
/// Part of the wait()'s transaction, so it commits atomically with the
/// predicate check — see Impl::intents_.
void tx_condvar::announce(TxContext& tx) {
  tx.fetch_add(impl_->intents_, std::uint64_t{1});
}

void tx_condvar::block(bool timed, std::chrono::nanoseconds timeout) {
  TxStats& stats = my_slot().stats;
  // Perturbation point: the committed-but-not-yet-enqueued window a racing
  // notify must bank for.
  if (fault::active() && fault::perturb(fault::Hook::CvEnqueue))
    stats.bump(stats.fault_delays);
  WaitSlot& slot = my_wait_slot();
  if (!impl_->enqueue(&slot)) return;  // consumed a banked signal
  stats.bump(stats.condvar_waits);
  if (!timed) {
    while (sem_wait(&slot.sem) != 0 && errno == EINTR) {
    }
    return;
  }
  const timespec abs = deadline_after(timeout);
  int rc;
  while ((rc = sem_wait_until(&slot.sem, &abs)) != 0 && errno == EINTR) {
  }
  if (rc == 0) return;
  // Timed out — withdraw, unless a signal claimed us in the race window, in
  // which case the post must be absorbed so the slot stays balanced.
  // Perturbation point: that timeout->withdraw window.
  if (fault::active() && fault::perturb(fault::Hook::CvTimeout))
    stats.bump(stats.fault_delays);
  if (impl_->withdraw(&slot)) {
    stats.bump(stats.condvar_timeouts);
    return;
  }
  while (sem_wait(&slot.sem) != 0 && errno == EINTR) {
  }
}

void tx_condvar::wait(TxContext& tx) {
  if (config().mode == ExecMode::StmSpin) {
    // The paper's STM+Spin configuration: no sleeping, just re-poll.
    tx.defer([] { std::this_thread::yield(); });
    return;
  }
  announce(tx);
  tx.defer([this] { block(false, {}); });
}

void tx_condvar::wait_for(TxContext& tx, std::chrono::nanoseconds timeout) {
  if (config().mode == ExecMode::StmSpin) {
    tx.defer([] { std::this_thread::yield(); });
    return;
  }
  announce(tx);
  tx.defer([this, timeout] { block(true, timeout); });
}

void tx_condvar::notify_one(TxContext& tx) {
  tx.defer([this] { impl_->signal_one(); });
}

void tx_condvar::notify_all(TxContext& tx) {
  tx.defer([this] { impl_->signal_all(); });
}

void tx_condvar::notify_one_now() { impl_->signal_one(); }

void tx_condvar::notify_all_now() { impl_->signal_all(); }

int tx_condvar::waiter_count() const {
  std::lock_guard<std::mutex> g(impl_->m);
  return static_cast<int>(impl_->waiters.size());
}

}  // namespace tle
