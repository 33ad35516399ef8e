// Public TLE/TM API — the library-level analog of the C++ TM Technical
// Specification constructs the paper uses:
//
//   tle::atomic_do(body)         ~ atomic blocks
//   tle::synchronized_do(body)   ~ synchronized blocks (irrevocable)
//   tle::critical(mutex, body)   ~ a lock-based critical section, elided or
//                                  not according to the global ExecMode
//   TxContext::no_quiesce()      ~ the paper's proposed TM_NoQuiesce
//   TxContext::defer(fn)         ~ deferred actions (Section VI-c logging)
//   tle::tm_pure(fn)             ~ the transaction_pure escape (Section VI-e)
//
// Speculative bodies must route shared accesses through tm_var<T> and the
// TxContext, allocate with TxContext::alloc/create, and confine other side
// effects to deferred actions — the same contract the TMTS enforces
// statically with transaction_safe. Plain code (locals, private buffers) is
// uninstrumented, exactly like compiler-based TM treats thread-local data.
#pragma once

#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>

#include "tm/audit.hpp"
#include "tm/config.hpp"
#include "tm/fault/fault.hpp"
#include "tm/governor/governor.hpp"
#include "tm/obs/site.hpp"
#include "tm/txdesc.hpp"

namespace tle {

// ---------------------------------------------------------------------------
// tm_var
// ---------------------------------------------------------------------------

/// A transactional variable holding a word-sized trivially-copyable T
/// (integers, enums, pointers, small structs up to 8 bytes).
template <typename T>
class tm_var {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "tm_var requires a trivially copyable type of at most 8 bytes");

 public:
  tm_var() noexcept { cell_.store(encode(T{}), std::memory_order_relaxed); }
  explicit tm_var(T v) noexcept {
    cell_.store(encode(v), std::memory_order_relaxed);
  }

  tm_var(const tm_var&) = delete;
  tm_var& operator=(const tm_var&) = delete;

  /// Non-transactional read — ONLY legal when the caller owns the data
  /// (initialization, or after privatization + quiescence). Checked by the
  /// §IV-C auditor when tle::audit::enable(true) is set.
  T unsafe_get() const noexcept {
    if (audit::enabled()) audit::on_unsafe_access(this);
    return decode(cell_.load(std::memory_order_relaxed));
  }

  /// Non-transactional write — same ownership requirement as unsafe_get.
  void unsafe_set(T v) noexcept {
    if (audit::enabled()) audit::on_unsafe_access(this);
    cell_.store(encode(v), std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t>& raw() const noexcept { return cell_; }

  static std::uint64_t encode(T v) noexcept {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof(T));
    return raw;
  }
  static T decode(std::uint64_t raw) noexcept {
    T v;
    std::memcpy(&v, &raw, sizeof(T));
    return v;
  }

 private:
  mutable std::atomic<std::uint64_t> cell_;
};

/// Commit-sequence stripe covering `v` under the current htm_seq_stripes
/// setting. For tests and benchmarks that need to construct footprints with
/// known stripe intersection (or deliberate aliasing) without re-deriving
/// the address hash.
template <typename T>
unsigned stripe_of(const tm_var<T>& v) noexcept {
  return htm_stripe_index(&v.raw());
}

// ---------------------------------------------------------------------------
// TxContext
// ---------------------------------------------------------------------------

/// Handle passed to every transactional body; all shared-memory access and
/// TM services go through it.
class TxContext {
 public:
  explicit TxContext(TxDesc* tx) noexcept : tx_(tx) {}

  template <typename T>
  T read(const tm_var<T>& v) const {
    return tm_var<T>::decode(tx_read_word(*tx_, v.raw()));
  }

  template <typename T>
  void write(tm_var<T>& v, T value) const {
    tx_write_word(*tx_, v.raw(), tm_var<T>::encode(value));
  }

  /// Read-modify-write sugar: v += delta, returning the PREVIOUS value.
  template <typename T>
  T fetch_add(tm_var<T>& v, T delta) const {
    const T old = read(v);
    write(v, static_cast<T>(old + delta));
    return old;
  }

  /// Raw word access for multi-word containers (tm_obj).
  std::uint64_t read_raw(const std::atomic<std::uint64_t>& cell) const {
    return tx_read_word(*tx_, cell);
  }
  void write_raw(std::atomic<std::uint64_t>& cell, std::uint64_t v) const {
    tx_write_word(*tx_, cell, v);
  }

  /// The paper's TM_NoQuiesce: request that this transaction skip its
  /// post-commit quiescence. Ignored (with accounting) when nested, when the
  /// transaction frees memory, or when the runtime policy says so (§IV-B).
  void no_quiesce() const noexcept {
    TxStats& s = *tx_->stats;
    s.bump(s.noquiesce_requests);
    if (tx_->depth > 1) {
      s.bump(s.noquiesce_ignored_nested);
      return;
    }
    // Simulated-HTM attempts never quiesce anyway, but a skip assertion
    // made here must not license anything downstream (an immediate free, a
    // skipped audit arm) while lazily-validating HTM peers are in flight:
    // the paper's "HTM needs no quiescence" identity is a property of
    // eager coherence aborts that our simulation does not have. Ignore
    // with accounting instead of silently honoring.
    if (tx_->access == AccessMode::Htm && htm_readers_possible()) {
      s.bump(s.noquiesce_ignored_htm);
      return;
    }
    tx_->noquiesce_req = true;
  }

  /// Register a deferred action: runs after commit (after the critical
  /// section in Lock mode), dropped on abort. This is how irrevocable
  /// effects (logging, condvar signals, I/O) are expressed (§VI-c).
  template <typename F>
  void defer(F&& fn) const {
    tx_->deferred.emplace_back(std::forward<F>(fn));
  }

  /// Transactional allocation: released automatically if the transaction
  /// aborts.
  void* alloc(std::size_t n) const {
    void* p = ::operator new(n);
    if (!tx_->is_serial && tx_->access != AccessMode::Direct)
      tx_->allocs.push_back(p);
    tx_->stats->bump(tx_->stats->tm_allocs);
    return p;
  }

  /// Transactional free: deferred until commit, and the commit quiesces
  /// before the memory returns to the allocator (§IV-B's allocator rule).
  void free(void* p) const {
    if (!p) return;
    if (tx_->access == AccessMode::Direct) {
      ::operator delete(p);
      tx_->stats->bump(tx_->stats->tm_frees);
      return;
    }
    tx_->frees.push_back(p);
    tx_->freed_memory = true;
  }

  /// Typed helpers over alloc/free for trivially-destructible node types.
  template <typename T, typename... Args>
  T* create(Args&&... args) const {
    static_assert(std::is_trivially_destructible_v<T>,
                  "transactional nodes must be trivially destructible");
    return ::new (alloc(sizeof(T))) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void destroy(T* p) const {
    static_assert(std::is_trivially_destructible_v<T>);
    free(const_cast<std::remove_const_t<T>*>(p));
  }

  /// Abort the transaction and re-execute it from the top. Used by
  /// speculative retry loops (e.g. the StmSpin waiting idiom).
  [[noreturn]] void restart() const { tx_abort(*tx_, AbortCause::UserExplicit); }

  bool is_irrevocable() const noexcept {
    return tx_->access == AccessMode::Direct;
  }
  bool in_htm() const noexcept { return tx_->access == AccessMode::Htm; }
  bool in_stm() const noexcept { return tx_->access == AccessMode::Stm; }

  TxDesc& desc() const noexcept { return *tx_; }

 private:
  TxDesc* tx_;
};

/// The §VI-e transaction_pure escape: `fn` contains only instrumentable-free
/// computation (vector math, table lookups on private data). In a library TM
/// uninstrumented code is already pure; the wrapper documents intent and is
/// a single call in release builds.
template <typename F>
decltype(auto) tm_pure(F&& fn) {
  return std::forward<F>(fn)();
}

// ---------------------------------------------------------------------------
// Execution wrappers
// ---------------------------------------------------------------------------

/// Per-section tuning attributes — the paper's closing §VII-A suggestion
/// ("it would be beneficial for programmers to be able to suggest retry
/// policies on a transaction-by-transaction basis"). Default values inherit
/// the global RuntimeConfig / governor policy table.
struct TxnAttrs {
  /// Failed budget-consuming attempts tolerated before serial fallback.
  /// -1 inherits the global limit; 0 means "one attempt, then serial"
  /// (matching htm_max_retries = 0 — see config.hpp). Negative values other
  /// than -1 are invalid.
  int max_retries = -1;
  bool prefer_serial = false;  ///< skip speculation entirely (known-hostile
                               ///< sections, e.g. huge footprints)
  /// Per-cause governor disposition overrides; Disposition::Inherit (the
  /// default) keeps the global policy table. Index with on_abort() below.
  gov::Disposition on_abort_disp[static_cast<int>(AbortCause::kCount)] = {};

  /// Builder-style override: `TxnAttrs{}.with(AbortCause::Capacity,
  /// gov::Disposition::Backoff)` restores retrying for a cause.
  TxnAttrs& with(AbortCause cause, gov::Disposition d) noexcept {
    on_abort_disp[static_cast<int>(cause)] = d;
    return *this;
  }
};

namespace detail {

/// Run `body` irrevocably under the serial token.
template <typename F>
void run_serial(TxDesc& tx, F&& body) {
  tx_serial_enter(tx);
  try {
    TxContext ctx(&tx);
    body(ctx);
  } catch (...) {
    tx_serial_exit(tx);
    throw;
  }
  tx_serial_exit(tx);
}

/// The speculative retry loop shared by atomic_do and elided critical().
/// `site` is the obs::TxSite id of this top-level section (0 = unnamed);
/// nested sections inherit the enclosing transaction's site.
template <typename F>
void run_transaction(F&& body, std::uint16_t site = 0) {
  TxDesc& tx = TxDesc::current();
  if (tx.in_txn()) {  // flat nesting: subsume into the enclosing transaction
    ++tx.depth;
    TxContext ctx(&tx);
    try {
      body(ctx);
    } catch (...) {
      --tx.depth;
      throw;
    }
    --tx.depth;
    return;
  }

  tx.site = site;
  tx.attempts = 0;
  tx.budget_used = 0;
  tx.txn_start_ns = 0;
  tx.force_serial = tx.attr_prefer_serial;
  // Fault-injection point: force this logical transaction straight into the
  // irrevocable path, exercising serial entry/exit and everything that
  // contends with it. Counted separately from serial_fallbacks, which keeps
  // meaning "speculation gave up".
  if (fault::active() && fault::should_force_serial()) {
    tx.force_serial = true;
    tx.stats->bump(tx.stats->fault_forced_serial);
  }
  if (config().mode == ExecMode::Lock) {
    // atomic_do without a mutex in Lock mode: fall back to serial execution
    // (the TMTS "synchronized" semantics).
    run_serial(tx, body);
    return;
  }

  // Storm tokens outlive individual attempts (a retrying transaction keeps
  // its admission); the guard returns a held token on every exit — commit,
  // serial escalation, or a user exception unwinding through us.
  gov::TokenGuard gov_guard(tx);
  for (;;) {
    if (tx.force_serial) {
      run_serial(tx, body);
      return;
    }
    if (!gov::admit(tx)) {
      // Starved at the storm gate: the watchdog escalated us to serial.
      count(tx, Ctr::serial_fallbacks);
      tx.force_serial = true;
      continue;
    }
    // NOTE: locals of this frame mutated after setjmp live in TxDesc, never
    // in the frame, so no volatile is needed.
    if (setjmp(tx.env) == 0) {
      tx_begin_speculative(tx);
      TxContext ctx(&tx);
      try {
        body(ctx);
      } catch (...) {
        // Cancel-and-throw: roll back, then let the exception continue.
        tx_rollback_for_exception(tx);
        throw;
      }
      tx_commit_speculative(tx);
      gov::on_commit(tx);
      tx_post_commit(tx);
      return;
    }
    // Aborted (longjmp): the descriptor is already rolled back and clean.
    ++tx.attempts;
    if (gov::on_abort(tx) == gov::Decision::Serial) {
      tx.force_serial = true;
      count(tx, Ctr::serial_fallbacks);
    } else if (config().mode == ExecMode::Htm) {
      // An HTM "retry" is an abort followed by another hardware attempt;
      // the abort that sends us serial is a fallback, not a retry.
      count(tx, Ctr::htm_retries);
    }
  }
}

/// run_transaction with scoped per-transaction attributes.
template <typename F>
void run_transaction_with_attrs(const TxnAttrs& attrs, F&& body,
                                std::uint16_t site = 0);

}  // namespace detail

/// Execute `body(TxContext&)` atomically (the TMTS atomic block).
template <typename F>
void atomic_do(F&& body) {
  detail::run_transaction(std::forward<F>(body));
}

/// atomic_do() with a named profiling site (see TLE_TX_SITE).
template <typename F>
void atomic_do(const obs::TxSite& site, F&& body) {
  detail::run_transaction(std::forward<F>(body), site.id);
}

/// Execute `body(TxContext&)` irrevocably (the TMTS synchronized block with
/// unsafe content: serializes all transactions, runs alone).
template <typename F>
void synchronized_do(F&& body) {
  TxDesc& tx = TxDesc::current();
  if (tx.in_txn()) {
    // A synchronized block nested in a transaction must make the whole
    // enclosing transaction irrevocable; we restart it in serial mode.
    if (!tx.is_serial && !tx.in_lock_section) tx_abort(tx, AbortCause::Unsafe);
    ++tx.depth;
    TxContext ctx(&tx);
    try {
      body(ctx);
    } catch (...) {
      --tx.depth;
      throw;
    }
    --tx.depth;
    return;
  }
  tx.site = 0;
  detail::run_serial(tx, std::forward<F>(body));
}

/// synchronized_do() with a named profiling site.
template <typename F>
void synchronized_do(const obs::TxSite& site, F&& body) {
  TxDesc& tx = TxDesc::current();
  if (tx.in_txn()) {
    synchronized_do(std::forward<F>(body));
    return;
  }
  tx.site = site.id;
  detail::run_serial(tx, std::forward<F>(body));
}

/// Issue a full memory quiescence fence from non-transactional code: waits
/// for every in-flight transaction to finish. Useful in tests and when
/// hand-publishing data.
void tm_fence();

// ---------------------------------------------------------------------------
// Privatization-safe reclamation (mode-aware routing)
// ---------------------------------------------------------------------------
// On real silicon a privatizing commit coherence-aborts every speculative
// reader instantly, so the privatizer's subsequent `delete` is safe without
// quiescence. Our simulated HTM validates lazily: a zombie reader may issue
// one more value-validated load of the detached block before it notices the
// commit sequence moved. These wrappers are the privatizer-side `delete`
// replacement: free immediately when no simulated-HTM reader can be in
// flight (htm_readers_possible() — see txdesc.hpp), otherwise park the
// block in the limbo machinery until a grace period waits the zombies out.
// Accounted by priv_immediate_frees / priv_limbo_routed.

/// Typed post-privatization delete. The destructor runs immediately — a
/// zombie only ever re-loads tm_var cell values, never container internals
/// — while the raw storage takes the mode-aware routed path.
template <typename T>
void tm_private_delete(T* p) {
  if (!p) return;
  if constexpr (!std::is_trivially_destructible_v<T>) p->~T();
  tm_private_free(const_cast<void*>(static_cast<const void*>(p)));
}

/// Macro spelling for call sites that style engine services in the paper's
/// TM_* naming (mirrors TM_NoQuiesce). Expands to tm_private_delete.
#define TM_PRIVATE_FREE(ptr) ::tle::tm_private_delete(ptr)

// ---------------------------------------------------------------------------
// Lock elision
// ---------------------------------------------------------------------------

/// A mutex whose critical sections can be elided. In Lock mode it is a real
/// mutex; in STM/HTM modes it is erased and sections run as transactions
/// (Section IV-A's "lock erasure"). `domain` participates in ablation A3.
class elidable_mutex {
 public:
  elidable_mutex() noexcept = default;
  explicit elidable_mutex(std::uint32_t domain) noexcept : domain_(domain) {}

  std::mutex& native() noexcept { return m_; }
  std::uint32_t domain() const noexcept { return domain_; }

 private:
  std::mutex m_;
  std::uint32_t domain_ = 0;
};

namespace detail {

template <typename F>
void run_lock_section(elidable_mutex& m, F&& body, std::uint16_t site = 0) {
  TxDesc& tx = TxDesc::current();
  const bool outermost = !tx.in_lock_section;
  if (outermost) tx.site = site;
  // Each section runs the deferred actions *it* registered right after its
  // own unlock. Nested sections (x265's Listing-3 producer holds the queue
  // lock across inner sections) therefore signal/wait while outer locks are
  // still held — exactly the original pthread behaviour.
  const std::size_t mark = tx.deferred.size();
  {
    std::lock_guard<std::mutex> g(m.native());
    if (outermost) {
      tx.in_lock_section = true;
      tx.access = AccessMode::Direct;
    }
    ++tx.depth;
    TxContext ctx(&tx);
    try {
      body(ctx);
    } catch (...) {
      --tx.depth;
      if (outermost) {
        tx.in_lock_section = false;
        tx.deferred.clear();
      }
      throw;
    }
    --tx.depth;
    if (outermost) tx.in_lock_section = false;
  }
  count(tx, Ctr::lock_sections);
  while (tx.deferred.size() > mark) {
    // Run in FIFO order among this section's actions.
    std::size_t i = mark;
    auto fn = std::move(tx.deferred[i]);
    tx.deferred.erase(tx.deferred.begin() + static_cast<std::ptrdiff_t>(i));
    fn();
    tx.stats->bump(tx.stats->deferred_run);
  }
}

}  // namespace detail

/// THE TLE entry point: run `body` as the critical section guarded by `m`.
/// ExecMode::Lock acquires `m`; every other mode elides it.
template <typename F>
void critical(elidable_mutex& m, F&& body) {
  if (config().mode == ExecMode::Lock) {
    detail::run_lock_section(m, std::forward<F>(body));
    return;
  }
  TxDesc& tx = TxDesc::current();
  if (!tx.in_txn() && config().multi_domain) tx.domain = m.domain();
  detail::run_transaction(std::forward<F>(body));
}

/// critical() with a named profiling site: attempts/commits/aborts-by-cause
/// land in this site's row of the per-site profile (and Lock-mode runs in
/// its lock_sections column). Example:
///   tle::critical(m, TLE_TX_SITE("videnc/claim_row"), [&](auto& tx) ...);
template <typename F>
void critical(elidable_mutex& m, const obs::TxSite& site, F&& body) {
  if (config().mode == ExecMode::Lock) {
    detail::run_lock_section(m, std::forward<F>(body), site.id);
    return;
  }
  TxDesc& tx = TxDesc::current();
  if (!tx.in_txn() && config().multi_domain) tx.domain = m.domain();
  detail::run_transaction(std::forward<F>(body), site.id);
}

/// critical() with per-section retry tuning.
template <typename F>
void critical(elidable_mutex& m, const TxnAttrs& attrs, F&& body) {
  if (config().mode == ExecMode::Lock) {
    detail::run_lock_section(m, std::forward<F>(body));
    return;
  }
  TxDesc& tx = TxDesc::current();
  if (!tx.in_txn() && config().multi_domain) tx.domain = m.domain();
  detail::run_transaction_with_attrs(attrs, std::forward<F>(body));
}

/// critical() with both a named profiling site and retry tuning.
template <typename F>
void critical(elidable_mutex& m, const obs::TxSite& site, const TxnAttrs& attrs,
              F&& body) {
  if (config().mode == ExecMode::Lock) {
    detail::run_lock_section(m, std::forward<F>(body), site.id);
    return;
  }
  TxDesc& tx = TxDesc::current();
  if (!tx.in_txn() && config().multi_domain) tx.domain = m.domain();
  detail::run_transaction_with_attrs(attrs, std::forward<F>(body), site.id);
}

/// atomic_do() with per-transaction retry tuning.
template <typename F>
void atomic_do(const TxnAttrs& attrs, F&& body) {
  detail::run_transaction_with_attrs(attrs, std::forward<F>(body));
}

/// atomic_do() with a named profiling site and retry tuning.
template <typename F>
void atomic_do(const obs::TxSite& site, const TxnAttrs& attrs, F&& body) {
  detail::run_transaction_with_attrs(attrs, std::forward<F>(body), site.id);
}

namespace detail {

template <typename F>
void run_transaction_with_attrs(const TxnAttrs& attrs, F&& body,
                                std::uint16_t site) {
  TxDesc& tx = TxDesc::current();
  if (tx.in_txn()) {  // nested: attributes of the outermost section rule
    run_transaction(std::forward<F>(body), site);
    return;
  }
  tx.attr_retries = attrs.max_retries;
  tx.attr_prefer_serial = attrs.prefer_serial;
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c)
    tx.attr_disp[c] = static_cast<std::uint8_t>(attrs.on_abort_disp[c]);
  auto clear_attrs = [&tx]() noexcept {
    tx.attr_retries = -1;
    tx.attr_prefer_serial = false;
    for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c)
      tx.attr_disp[c] = 0;
  };
  try {
    run_transaction(std::forward<F>(body), site);
  } catch (...) {
    clear_attrs();
    throw;
  }
  clear_attrs();
}

}  // namespace detail

}  // namespace tle
