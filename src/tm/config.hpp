// Runtime configuration for the TLE/TM runtime.
//
// The five algorithm configurations evaluated in the paper (Section VII) map
// onto ExecMode values; the Stm* modes all run ml_wt, the STM algorithm the
// paper used. Quiescence behaviour (Section IV) is controlled independently
// so the Figure-5 microbenchmarks can sweep it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tle {

/// How critical sections passed to tle::critical() are executed.
enum class ExecMode : std::uint8_t {
  Lock,           ///< baseline: the original mutex is acquired (no elision)
  StmSpin,        ///< STM elision; condition waits spin in small transactions
  StmCondVar,     ///< STM elision + transaction-friendly condition variables
  StmCondVarNoQ,  ///< as above, honoring TM_NoQuiesce requests
  Htm,            ///< simulated-HTM elision + condvars, serial fallback
};

/// When a committing STM transaction performs the epoch-based quiescence wait.
enum class QuiescePolicy : std::uint8_t {
  Always,      ///< every transaction quiesces (GCC libitm since 2016)
  WriterOnly,  ///< only writing transactions quiesce (pre-2016 GCC; breaks
               ///< proxy privatization — kept for the ablation benchmark)
  Never,       ///< no transaction quiesces (the unsafe "NoQ" of Figure 5)
};

/// Why a speculative transaction aborted.
enum class AbortCause : std::uint8_t {
  None = 0,
  Conflict,       ///< encountered an orec locked by another transaction
  Validation,     ///< read-set validation failed (timestamp/value check)
  Capacity,       ///< simulated-HTM read/write set overflowed the L1 model
  Unsafe,         ///< irrevocable operation attempted speculatively
  SerialPending,  ///< another thread requested/holds the serial token
  UserExplicit,   ///< user-requested cancel
  Spurious,       ///< simulated-HTM environmental abort (interrupts, etc.)
  StripeBusy,     ///< bounded wait on an odd commit stripe expired
                  ///< (SerialPending-class: budget-free drain-style retry)
  kCount,
};

const char* to_string(ExecMode m) noexcept;
const char* to_string(QuiescePolicy p) noexcept;
const char* to_string(AbortCause c) noexcept;

/// Global knobs. Mutated only between phases (never while transactions run).
struct RuntimeConfig {
  ExecMode mode = ExecMode::Lock;
  QuiescePolicy quiesce = QuiescePolicy::Always;

  /// Honor TxContext::no_quiesce() requests (the paper's TM_NoQuiesce API).
  bool honor_noquiesce = false;

  /// Hardware-transaction attempts before serial fallback. The paper's
  /// experiments use 2 ("fall back to a serial mode after hardware
  /// transactions fail twice").
  ///
  /// Retry-limit semantics (shared with stm_max_retries and the per-section
  /// TxnAttrs::max_retries override): the value is the number of *failed*
  /// budget-consuming speculative attempts tolerated before the section goes
  /// serial. 2 means "fall back after hardware transactions fail twice"
  /// (paper Section II-A); 0 means "one attempt, then serial". Negative
  /// values are invalid — validate_config() rejects them instead of the old
  /// behaviour of silently clamping to 1. SerialPending drain waits do not
  /// consume this budget (see serial_drain_timeout_ns).
  int htm_max_retries = 2;

  /// STM attempts before the GCC-style serialize-for-progress fallback.
  /// Same semantics as htm_max_retries.
  int stm_max_retries = 16;

  /// Simulated L1D capacity model for HTM write sets: sets × ways 64-byte
  /// lines (defaults model a 32 KB 8-way L1).
  unsigned htm_write_sets = 64;
  unsigned htm_write_ways = 8;
  /// Read-set tracking budget (TSX tracks reads beyond L1; model 4× lines).
  unsigned htm_read_sets = 256;
  unsigned htm_read_ways = 8;

  /// Probability that a hardware transaction aborts for environmental
  /// reasons (timer interrupts, TLB misses, cache pressure from other
  /// processes) — the failure class that dominated the paper's TSX runs
  /// (13–18% of PBZip2 transactions fell back after two such aborts).
  /// 0 (the default) keeps tests deterministic; benchmarks reproducing the
  /// paper's HTM statistics set it to a calibrated value. For reproducible,
  /// cause- and site-targeted failure drills use the generalization of this
  /// knob: the seeded plans of tm/fault/fault.hpp (TLE_FAULT_SEED).
  double htm_spurious_abort_rate = 0.0;

  /// Number of commit-sequence stripes the simulated HTM uses. Disjoint
  /// write sets that land on different stripes commit concurrently and do
  /// not invalidate each other's readers; 1 reproduces the old single
  /// global-sequence behaviour (the A/B baseline of bench/abl_commit_scale).
  /// Must be a power of two in [1, kHtmStripeMax] (validate_config()).
  unsigned htm_seq_stripes = 16;

  /// Ablation A3: when true, each elidable_mutex forms its own quiescence
  /// domain instead of the single erased-lock domain of Section IV-A.
  bool multi_domain = false;

  /// Spin iterations a quiescence or serial-lock waiter burns before
  /// parking on the watched word via atomic::wait. Small, because the
  /// watched transactions run for microseconds when they are short and for
  /// scheduler quanta when they are not — there is no middle worth spinning
  /// through.
  unsigned park_spin_limit = 64;

  /// Deferred frees a thread may accumulate in its limbo list before a
  /// commit forces a synchronous grace period to flush them (bounds worst
  /// case memory held back by lazy reclamation).
  std::size_t limbo_max_pending = 1024;

  // --- contention governor (src/tm/governor/) ----------------------------
  // Cause-aware retry policy and the starvation watchdog. Every speculative
  // retry goes through it; a cause-blind policy is a TxnAttrs table mapping
  // every cause but Unsafe to one disposition.

  /// Bound on a SerialPending drain wait: an aborted transaction waits (spin
  /// then timed sleep slices) for the serial lock's pending window to clear
  /// before re-attempting, WITHOUT consuming retry budget — the anti-lemming
  /// rule. If the window is still busy after this many nanoseconds the wait
  /// gives up and the abort consumes budget like any other.
  std::uint64_t serial_drain_timeout_ns = 2'000'000;

  /// Starvation watchdog: a logical transaction whose abort count reaches
  /// watchdog_max_attempts, or whose wall-clock age since its first abort
  /// reaches watchdog_deadline_ns, is escalated to serial mode regardless of
  /// abort cause or remaining budget. 0 disables the respective bound.
  unsigned watchdog_max_attempts = 64;
  std::uint64_t watchdog_deadline_ns = 50'000'000;

  /// Stall detector: a quiescence wait or serial-drain wait that blocks for
  /// at least this long counts as a stall (gov_stall_events + a flight
  /// recorder event). 0 disables detection.
  std::uint64_t watchdog_stall_ns = 100'000'000;

  // --- interval metrics (src/tm/obs/metrics.hpp) --------------------------

  /// Window length of the background metrics sampler in milliseconds
  /// (TLE_METRICS_PERIOD_MS overrides at startup). Must be >= 1.
  unsigned metrics_period_ms = 100;

  /// Depth of the retained window ring served by obs::metrics_history()
  /// (TLE_METRICS_HISTORY overrides at startup). Must be >= 1.
  unsigned metrics_history = 64;

  /// Returns true if `mode` executes critical sections as STM transactions.
  bool is_stm() const noexcept {
    return mode == ExecMode::StmSpin || mode == ExecMode::StmCondVar ||
           mode == ExecMode::StmCondVarNoQ;
  }
};

namespace detail {
inline constinit RuntimeConfig g_config;
}

/// The process-wide configuration.
inline RuntimeConfig& config() noexcept { return detail::g_config; }

/// Coherence check for a configuration about to be installed: returns
/// nullptr when `cfg` is valid, else a static string naming the first
/// violation (negative retry limits, spurious rate outside [0,1], a stripe
/// count that is not a power of two, a zero metrics period or history).
/// Rejecting here replaces the retry loop's old silent clamping.
const char* validate_config(const RuntimeConfig& cfg) noexcept;

/// Convenience: set `mode` plus the quiescence settings the paper pairs with
/// it (NoQ mode honors TM_NoQuiesce; all STM modes quiesce Always).
void set_exec_mode(ExecMode mode) noexcept;

}  // namespace tle
