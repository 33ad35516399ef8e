// Deterministic fault injection & schedule perturbation for the TLE runtime.
//
// The paper's central findings are about *failure paths*: spurious HTM
// aborts forcing serial fallback, serialization storms, quiescence stalls.
// Stress loops hit those windows probabilistically; this subsystem makes
// them drivable on demand and reproducibly:
//
//   * Injection — a seeded plan can force any speculative AbortCause at the
//     begin/read/write/commit decision points (generalizing the single
//     htm_spurious_abort_rate poll), force serial-mode entry, and force
//     synchronous limbo flushes.
//   * Perturbation — injectable yield/sleep delays inside the seq_cst
//     Dekker handshake windows: the serial lock's read back-out and writer
//     drain/unlock, epoch exit/scan parking, grace-period piggyback waits
//     and pass publication, and tx_condvar's commit->enqueue->sleep and
//     timeout->withdraw races.
//   * Reproducibility — every decision is a pure function of
//     (seed, stream, hook, per-thread event counter, rule index); nothing
//     reads the wall clock or a global RNG, so the same seed over the same
//     per-thread workloads yields an identical injected-event sequence.
//
// Cost model: when no plan is installed the runtime pays one relaxed load
// of the activation word per decision point (same discipline as
// obs::flags()). Plans are installed between phases, never while
// transactions run — the same contract as RuntimeConfig mutation.
//
// Env activation (mirrors TLE_STATS_DUMP): TLE_FAULT_SEED=<u64> arms the
// default chaos plan; TLE_FAULT_PLAN overrides it with a spec string (see
// install_spec). Injected events are counted globally here (snapshot()),
// per thread in TxStats (faults_injected / fault_delays / ...), and
// per-site via the obs layer (an injected abort is attributed to its site
// and cause exactly like an organic one).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "tm/config.hpp"

namespace tle::fault {

/// Engine decision points (injection) and handshake windows (perturbation).
enum class Hook : std::uint8_t {
  Begin,          ///< speculative begin (abort) / attempt start (force-serial)
  Read,           ///< speculative read, any engine
  Write,          ///< speculative write, any engine
  Commit,         ///< speculative commit, before publication
  PostCommit,     ///< post-commit duties (forced limbo flush)
  SlReadBackout,  ///< serial lock: reader saw a pending writer, pre-back-out
  SlWriteDrain,   ///< serial lock: writer parked on a straggling reader
  SlWriteUnlock,  ///< serial lock: between writer release and pending drop
  EpochExit,      ///< quiescence: before the epoch-exit seq bump
  EpochScan,      ///< quiescence: scanner about to park on a straggler
  GraceWait,      ///< shared grace period: piggybacker about to park
  GracePublish,   ///< shared grace period: scanner between publishing its
                  ///< pass and releasing the scanner token
  CvEnqueue,      ///< tx_condvar: committed wait, before enqueue+sleep
  CvTimeout,      ///< tx_condvar: timed out, before the withdraw attempt
  GovDrain,       ///< governor: before a serial-pending drain wait
  HtmZombieLoad,  ///< simulated-HTM read: post-peer-commit, pre-revalidation
  kCount,
};
inline constexpr int kHookCount = static_cast<int>(Hook::kCount);

const char* to_string(Hook h) noexcept;

enum class ActionKind : std::uint8_t {
  Abort,        ///< fire tx_abort(cause) at a speculative decision point
  ForceSerial,  ///< run the next logical transaction irrevocably (Begin)
  ForceFlush,   ///< force a synchronous limbo drain (PostCommit)
  Delay,        ///< schedule perturbation: yield (delay_ns=0) or sleep
};

/// One probabilistic rule of a plan. Rules at the same hook draw
/// independently (salted by rule index) from the same event counter.
struct Rule {
  Hook hook = Hook::Begin;
  ActionKind kind = ActionKind::Abort;
  AbortCause cause = AbortCause::Spurious;  ///< Abort rules only
  double prob = 0.0;                        ///< per-event firing probability
  std::uint64_t delay_ns = 0;  ///< Delay rules: 0 = yield, else sleep
};

struct Plan {
  std::uint64_t seed = 0;
  std::vector<Rule> rules;
};

/// Install `plan` and arm the decision points. Resets the per-thread event
/// counters and the global injected-event counts. Not thread-safe against
/// running transactions (install between phases, like RuntimeConfig).
void install(const Plan& plan);

/// Disarm: decision points return to the single relaxed-load fast path.
void clear();

/// Parse and install a comma-separated spec, e.g.
///   "spurious@commit=0.02,conflict@read=0.01,serial@begin=0.005,
///    flush@post=0.01,yield@cv_enqueue=0.1,delay@sl_read_backout=1/2000000"
/// Grammar per token: <action>@<hook>=<prob>[/<delay_ns>] where <action> is
/// an injectable AbortCause name (spurious|conflict|validation|capacity|
/// serial-pending), "serial" (force serial), "flush" (force limbo flush),
/// "yield" or "delay" (perturbation). Returns false (and installs nothing)
/// on a malformed spec.
bool install_spec(const char* spec, std::uint64_t seed);

/// The plan TLE_FAULT_SEED arms when TLE_FAULT_PLAN is absent: low-rate
/// injection at every decision point plus yields in every handshake window.
const char* default_spec() noexcept;

namespace detail {
extern std::atomic<std::uint32_t> g_active;
}

/// The one relaxed load every decision point pays when no plan is armed.
inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed) != 0;
}

// ---------------------------------------------------------------------------
// Decision points. All deterministic in (seed, stream, hook, event counter);
// callers gate on active() so the disarmed cost stays one relaxed load.
// ---------------------------------------------------------------------------

/// Abort cause to inject at this point, or AbortCause::None.
AbortCause should_abort(Hook h) noexcept;

/// True if the next logical transaction must run serial (Hook::Begin rules).
bool should_force_serial() noexcept;

/// True if this post-commit must force a synchronous limbo flush.
bool should_force_flush() noexcept;

/// Execute a perturbation delay if the plan says so; true if one ran.
bool perturb(Hook h) noexcept;

/// Pin this thread's deterministic stream id. By default a thread draws
/// from stream = its registry slot id; tests whose threads run distinct
/// workloads pin explicit streams so slot-claim order cannot change the
/// sequence. Takes effect from the next decision on.
void set_thread_stream(std::uint32_t stream) noexcept;

// ---------------------------------------------------------------------------
// Injected-event accounting (global; TxStats carries the per-thread rows)
// ---------------------------------------------------------------------------

struct Counts {
  std::uint64_t injected[kHookCount][static_cast<int>(AbortCause::kCount)] =
      {};
  std::uint64_t delays[kHookCount] = {};
  std::uint64_t forced_serial = 0;
  std::uint64_t forced_flush = 0;

  std::uint64_t injected_total() const noexcept {
    std::uint64_t t = 0;
    for (const auto& row : injected)
      for (std::uint64_t v : row) t += v;
    return t;
  }
  std::uint64_t delays_total() const noexcept {
    std::uint64_t t = 0;
    for (std::uint64_t v : delays) t += v;
    return t;
  }
  bool operator==(const Counts&) const = default;
};

Counts snapshot() noexcept;
void reset_counts() noexcept;

/// Human-readable per-hook/per-cause summary of everything injected so far.
std::string report();

/// TLE_FAULT_SEED / TLE_FAULT_PLAN activation; runs once (static init in
/// fault.cpp, so any binary linking the TM core honours the env vars).
void init_from_env() noexcept;

}  // namespace tle::fault
