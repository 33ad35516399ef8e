// Runtime configuration for the TLE/TM runtime.
//
// The five algorithm configurations evaluated in the paper (Section VII) map
// onto ExecMode values; quiescence behaviour (Section IV) is controlled
// independently so the Figure-5 microbenchmarks can sweep it.
#pragma once

#include <atomic>
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

/// Which STM algorithm the Stm* modes run. MlWt/GlWt mirror GCC libitm's
/// method groups: ml_wt (the default the paper used) and gl_wt (a single
/// global versioned lock, TML-style — cheap reads, zero write concurrency).
/// TicToc is the timestamped-OCC third instance of the commit-protocol seam
/// (src/tm/protocol/): write-back, per-orec {write_ts, read_ts}, commit-time
/// timestamp allocation with read-set extension — no global clock at all.
enum class StmAlgo : std::uint8_t {
  MlWt,    ///< multiple orec locks, write-through (TinySTM-flavoured)
  GlWt,    ///< one global versioned lock, write-through
  TicToc,  ///< timestamped OCC, write-back (TicToc-flavoured)
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
const char* to_string(StmAlgo a) noexcept;
const char* to_string(QuiescePolicy p) noexcept;
const char* to_string(AbortCause c) noexcept;

/// Global knobs. Mutated only between phases (never while transactions run).
struct RuntimeConfig {
  ExecMode mode = ExecMode::Lock;
  StmAlgo stm_algo = StmAlgo::MlWt;
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
  // Cause-aware retry policy, abort-storm throttling, and the starvation
  // watchdog. Every speculative retry goes through it; a cause-blind policy
  // is a TxnAttrs table mapping every cause but Unsafe to one disposition.

  /// Bound on a SerialPending drain wait: an aborted transaction waits (spin
  /// then timed sleep slices) for the serial lock's pending window to clear
  /// before re-attempting, WITHOUT consuming retry budget — the anti-lemming
  /// rule. If the window is still busy after this many nanoseconds the wait
  /// gives up and the abort consumes budget like any other.
  std::uint64_t serial_drain_timeout_ns = 2'000'000;

  /// Abort-storm hysteresis: the storm gate engages when the sliding-window
  /// abort rate reaches storm_on_rate and releases when it falls back to
  /// storm_off_rate. Rates are aborts/attempts in [0,1]; off must not
  /// exceed on (validate_config()).
  double storm_on_rate = 0.85;
  double storm_off_rate = 0.50;

  /// Speculative attempts a thread accumulates locally before folding its
  /// window into the global abort-rate estimate (no hot-path shared writes).
  /// Must be >= 1.
  unsigned storm_window = 64;

  /// Concurrency admitted through the storm gate while a storm is active.
  /// Must be >= 1 (a zero throttle would deadlock the gate).
  unsigned storm_tokens = 2;

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

  /// Master switch for the interval-metrics subsystem. When false the env
  /// activation (TLE_METRICS_OUT & co) is ignored and the sampler refuses to
  /// start. The adaptive controller consumes metrics windows, so
  /// validate_config() rejects controller=true with metrics=false.
  bool metrics = true;

  /// Window length of the background metrics sampler in milliseconds
  /// (TLE_METRICS_PERIOD_MS overrides at startup). Must be >= 1.
  unsigned metrics_period_ms = 100;

  /// Depth of the retained window ring served by obs::metrics_history()
  /// (TLE_METRICS_HISTORY overrides at startup). Must be >= 1.
  unsigned metrics_history = 64;

  // --- adaptive mode controller (src/tm/control/) -------------------------
  // Periodic controller that closes the obs→governor loop: classifies each
  // site from its interval abort-cause mix and re-plans retry budget /
  // serial disposition through the same override seam TxnAttrs uses, with a
  // global degraded mode (sustained storms force serial) and gradual
  // recovery probes. See docs/tm-internals.md "Self-tuning control loop".

  /// Master switch for the controller. Requires metrics (validate_config()).
  /// Off means zero overhead on the txn path.
  bool controller = false;

  /// Evaluate once every this many metrics windows (deltas from skipped
  /// windows are accumulated, not dropped). Must be >= 1; int so a negative
  /// period is rejected rather than wrapping.
  int ctl_period_windows = 1;

  /// Minimum speculative attempts a site must show in the accumulated
  /// interval before the controller classifies it. Must be >= 1.
  unsigned ctl_min_samples = 64;

  /// Consecutive evaluations that must propose the same (changed) action
  /// before a site's plan actually changes — the per-site confidence score.
  /// Must be >= 1.
  unsigned ctl_confidence = 2;

  /// Evaluations a freshly changed plan is held (no further change, and no
  /// recovery probing) before the controller reconsiders it.
  unsigned ctl_hold_windows = 4;

  /// Degraded-mode hysteresis on the global abort ratio (aborts / txn
  /// starts of the evaluation interval). Trip at >= ctl_trip_ratio for
  /// ctl_trip_windows consecutive evaluations; a probe interval reads
  /// healthy at <= ctl_release_ratio. The interval must be open:
  /// release strictly below trip (validate_config()).
  double ctl_trip_ratio = 0.90;
  double ctl_release_ratio = 0.50;

  /// Consecutive storm evaluations (global ratio >= trip, or watchdog
  /// escalations observed) required to enter degraded mode. Must be >= 1.
  unsigned ctl_trip_windows = 2;

  /// Initial recovery-probe fraction: 1/2^ctl_probe_shift of attempts are
  /// re-admitted to speculation while probing; each healthy probe interval
  /// halves the shift until full speculation is restored. Must be in
  /// [1, 16] — shift 0 would re-admit everything at once.
  unsigned ctl_probe_shift = 3;

  /// Retry budget granted to conflict/spurious-dominated sites (the "HTM
  /// with backoff" plan). Must be >= 0; overrides the global per-mode limit
  /// but never a per-section TxnAttrs::max_retries.
  int ctl_boost_retries = 8;

  /// Allow the controller to switch the global ExecMode (HTM <-> STM) under
  /// a drained serial section when the degraded storm is capacity-dominated.
  /// Per-site plans never switch modes — mixing per-site STM under a global
  /// HTM phase is unsound (write-through STM commits bypass the HTM commit
  /// stripes, so HTM readers would miss them).
  bool ctl_mode_switch = true;

  /// Returns true if `mode` executes critical sections as STM transactions.
  bool is_stm() const noexcept {
    return mode == ExecMode::StmSpin || mode == ExecMode::StmCondVar ||
           mode == ExecMode::StmCondVarNoQ;
  }
};

/// The process-wide configuration (defined in runtime.cpp).
RuntimeConfig& config() noexcept;

/// Relaxed atomic view of config().mode for reads that may race the adaptive
/// controller's drained mode switch — the only writer that flips the mode
/// while worker threads exist. The switch itself runs inside a serial
/// section (no transaction is live), but threads between attempts still
/// read the byte, so both sides go through atomic_ref. Everything else in
/// RuntimeConfig keeps the "mutated only between phases" contract.
inline ExecMode live_mode() noexcept {
  return std::atomic_ref<ExecMode>(config().mode)
      .load(std::memory_order_relaxed);
}

inline void set_live_mode(ExecMode m) noexcept {
  std::atomic_ref<ExecMode>(config().mode)
      .store(m, std::memory_order_relaxed);
}

/// Coherence check for a configuration about to be installed: returns
/// nullptr when `cfg` is valid, else a static string naming the first
/// violation (negative retry limits, storm rates outside [0,1] or inverted
/// hysteresis, zero storm window/tokens, spurious rate outside [0,1]).
/// Rejecting here replaces the retry loop's old silent clamping.
const char* validate_config(const RuntimeConfig& cfg) noexcept;

/// Convenience: set `mode` plus the quiescence settings the paper pairs with
/// it (NoQ mode honors TM_NoQuiesce; all STM modes quiesce Always).
void set_exec_mode(ExecMode mode) noexcept;

}  // namespace tle
