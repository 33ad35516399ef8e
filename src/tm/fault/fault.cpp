// Deterministic fault injection & schedule perturbation — implementation.
//
// Determinism contract: a decision at (hook, per-thread event n, rule r) is
// splitmix64(seed ^ mix(stream) ^ mix(hook) ^ mix(n) ^ mix(r)) < prob. The
// per-thread event counter advances exactly once per consultation of a hook
// whether or not any rule fires, so two runs with the same seed and the same
// per-thread workloads consult identical (stream, hook, n) triples and fire
// identical events. Nothing here reads the wall clock.
#include "tm/fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "tm/registry.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace tle::fault {

namespace detail {
std::atomic<std::uint32_t> g_active{0};
}  // namespace detail

namespace {

constexpr int kCauseCount = static_cast<int>(AbortCause::kCount);

struct ActivePlan {
  std::uint64_t seed = 0;
  std::vector<Rule> by_hook[kHookCount];
};

// Written only by install()/clear() (between phases), read by armed decision
// points — same publication discipline as RuntimeConfig.
ActivePlan g_plan;

// Bumped by install() so thread-local streams lazily reset their counters.
std::atomic<std::uint64_t> g_plan_epoch{0};

struct GlobalCounts {
  std::atomic<std::uint64_t> injected[kHookCount][kCauseCount] = {};
  std::atomic<std::uint64_t> delays[kHookCount] = {};
  std::atomic<std::uint64_t> forced_serial{0};
  std::atomic<std::uint64_t> forced_flush{0};
};
GlobalCounts g_counts;

/// Per-thread deterministic stream: an id (pinned or slot-derived) plus one
/// event counter per hook, reset whenever a new plan is installed.
struct ThreadStream {
  std::uint64_t epoch = ~0ULL;
  std::uint32_t id = 0;
  bool pinned = false;
  std::uint64_t n[kHookCount] = {};
};

ThreadStream& stream() noexcept {
  thread_local ThreadStream ts;
  const std::uint64_t epoch = g_plan_epoch.load(std::memory_order_acquire);
  if (ts.epoch != epoch) {
    ts.epoch = epoch;
    std::memset(ts.n, 0, sizeof(ts.n));
    if (!ts.pinned) ts.id = static_cast<std::uint32_t>(my_slot_id());
  }
  return ts;
}

bool fire(double prob, std::uint32_t strm, Hook h, std::uint64_t n,
          std::size_t rule) noexcept {
  if (prob <= 0.0) return false;
  if (prob >= 1.0) return true;
  std::uint64_t x = g_plan.seed;
  x ^= (static_cast<std::uint64_t>(strm) + 1) * 0x9E3779B97F4A7C15ULL;
  x ^= (static_cast<std::uint64_t>(h) + 1) * 0xC2B2AE3D27D4EB4FULL;
  x ^= (n + 1) * 0x165667B19E3779F9ULL;
  x ^= (static_cast<std::uint64_t>(rule) + 1) * 0x27D4EB2F165667C5ULL;
  const std::uint64_t r = splitmix64(x);
  return static_cast<double>(r >> 11) * 0x1.0p-53 < prob;
}

/// One consultation of `h`: advance the event counter, return the first
/// firing rule of `kind` (rules draw independently, salted by index).
const Rule* consult(Hook h, ActionKind kind) noexcept {
  ThreadStream& ts = stream();
  const int hi = static_cast<int>(h);
  const std::uint64_t n = ts.n[hi]++;
  const auto& rules = g_plan.by_hook[hi];
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (r.kind != kind) continue;
    if (fire(r.prob, ts.id, h, n, i)) return &r;
  }
  return nullptr;
}

struct NameMap {
  const char* name;
  int value;
};

constexpr NameMap kHookNames[] = {
    {"begin", static_cast<int>(Hook::Begin)},
    {"read", static_cast<int>(Hook::Read)},
    {"write", static_cast<int>(Hook::Write)},
    {"commit", static_cast<int>(Hook::Commit)},
    {"post", static_cast<int>(Hook::PostCommit)},
    {"sl_read_backout", static_cast<int>(Hook::SlReadBackout)},
    {"sl_write_drain", static_cast<int>(Hook::SlWriteDrain)},
    {"sl_write_unlock", static_cast<int>(Hook::SlWriteUnlock)},
    {"epoch_exit", static_cast<int>(Hook::EpochExit)},
    {"epoch_scan", static_cast<int>(Hook::EpochScan)},
    {"grace_wait", static_cast<int>(Hook::GraceWait)},
    {"grace_publish", static_cast<int>(Hook::GracePublish)},
    {"cv_enqueue", static_cast<int>(Hook::CvEnqueue)},
    {"cv_timeout", static_cast<int>(Hook::CvTimeout)},
    {"gov_drain", static_cast<int>(Hook::GovDrain)},
    {"tt_commit", static_cast<int>(Hook::TtCommit)},
    {"htm_zombie", static_cast<int>(Hook::HtmZombieLoad)},
};
static_assert(sizeof(kHookNames) / sizeof(kHookNames[0]) == kHookCount);

/// Causes a plan may inject. Unsafe/UserExplicit are organic-only: they
/// carry semantics (irrevocability, user restart) injection can't fake.
constexpr NameMap kCauseNames[] = {
    {"spurious", static_cast<int>(AbortCause::Spurious)},
    {"conflict", static_cast<int>(AbortCause::Conflict)},
    {"validation", static_cast<int>(AbortCause::Validation)},
    {"capacity", static_cast<int>(AbortCause::Capacity)},
    {"serial-pending", static_cast<int>(AbortCause::SerialPending)},
    {"stripe-busy", static_cast<int>(AbortCause::StripeBusy)},
};

int lookup(const NameMap* map, std::size_t count, const char* s,
           std::size_t len) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    if (std::strlen(map[i].name) == len &&
        std::memcmp(map[i].name, s, len) == 0)
      return map[i].value;
  }
  return -1;
}

/// Parse one "action@hook=prob[/delay_ns]" token into `out`.
bool parse_rule(const char* tok, std::size_t len, Rule& out) noexcept {
  const char* at = static_cast<const char*>(std::memchr(tok, '@', len));
  const char* eq = static_cast<const char*>(std::memchr(tok, '=', len));
  if (!at || !eq || eq < at) return false;

  const std::size_t action_len = static_cast<std::size_t>(at - tok);
  const char* hook_s = at + 1;
  const std::size_t hook_len = static_cast<std::size_t>(eq - hook_s);
  const int hook =
      lookup(kHookNames, kHookCount, hook_s, hook_len);
  if (hook < 0) return false;
  out.hook = static_cast<Hook>(hook);

  auto is = [&](const char* name) {
    return std::strlen(name) == action_len &&
           std::memcmp(name, tok, action_len) == 0;
  };
  if (is("serial")) {
    out.kind = ActionKind::ForceSerial;
    if (out.hook != Hook::Begin) return false;
  } else if (is("flush")) {
    out.kind = ActionKind::ForceFlush;
    if (out.hook != Hook::PostCommit) return false;
  } else if (is("yield") || is("delay")) {
    out.kind = ActionKind::Delay;
    out.delay_ns = is("delay") ? 1000000 : 0;  // overridable below
  } else {
    const int cause = lookup(
        kCauseNames, sizeof(kCauseNames) / sizeof(kCauseNames[0]), tok,
        action_len);
    if (cause < 0) return false;
    out.kind = ActionKind::Abort;
    out.cause = static_cast<AbortCause>(cause);
    // Abort rules only make sense at speculative decision points: the
    // begin/read/write/commit quartet plus tictoc's in-commit window.
    if (static_cast<int>(out.hook) > static_cast<int>(Hook::Commit) &&
        out.hook != Hook::TtCommit)
      return false;
  }

  const char* num = eq + 1;
  const char* end = tok + len;
  char* stop = nullptr;
  out.prob = std::strtod(num, &stop);
  if (stop == num || out.prob < 0.0 || out.prob > 1.0) return false;
  if (stop < end && *stop == '/') {
    const char* delay_s = stop + 1;
    out.delay_ns = std::strtoull(delay_s, &stop, 10);
    if (stop == delay_s || out.kind != ActionKind::Delay) return false;
  }
  return stop == end;
}

}  // namespace

const char* to_string(Hook h) noexcept {
  const int i = static_cast<int>(h);
  return (i >= 0 && i < kHookCount) ? kHookNames[i].name : "?";
}

void install(const Plan& plan) {
  detail::g_active.store(0, std::memory_order_seq_cst);
  for (auto& v : g_plan.by_hook) v.clear();
  g_plan.seed = plan.seed;
  for (const Rule& r : plan.rules)
    g_plan.by_hook[static_cast<int>(r.hook)].push_back(r);
  reset_counts();
  g_plan_epoch.fetch_add(1, std::memory_order_acq_rel);
  detail::g_active.store(1, std::memory_order_seq_cst);
}

void clear() {
  detail::g_active.store(0, std::memory_order_seq_cst);
  for (auto& v : g_plan.by_hook) v.clear();
}

bool install_spec(const char* spec, std::uint64_t seed) {
  if (!spec) return false;
  Plan plan;
  plan.seed = seed;
  const char* p = spec;
  while (*p) {
    const char* comma = std::strchr(p, ',');
    const std::size_t len =
        comma ? static_cast<std::size_t>(comma - p) : std::strlen(p);
    if (len > 0) {
      Rule r;
      if (!parse_rule(p, len, r)) return false;
      plan.rules.push_back(r);
    }
    p += len + (comma ? 1 : 0);
  }
  if (plan.rules.empty()) return false;
  install(plan);
  return true;
}

const char* default_spec() noexcept {
  return "spurious@commit=0.02,conflict@read=0.01,validation@commit=0.01,"
         "capacity@write=0.005,serial-pending@begin=0.005,serial@begin=0.002,"
         "flush@post=0.01,yield@sl_read_backout=0.1,yield@sl_write_drain=0.1,"
         "yield@sl_write_unlock=0.1,yield@epoch_exit=0.02,"
         "yield@epoch_scan=0.05,yield@grace_wait=0.05,yield@cv_enqueue=0.05,"
         "yield@cv_timeout=0.05,yield@gov_drain=0.05";
}

AbortCause should_abort(Hook h) noexcept {
  const Rule* r = consult(h, ActionKind::Abort);
  if (!r) return AbortCause::None;
  g_counts.injected[static_cast<int>(h)][static_cast<int>(r->cause)]
      .fetch_add(1, std::memory_order_relaxed);
  return r->cause;
}

bool should_force_serial() noexcept {
  if (!consult(Hook::Begin, ActionKind::ForceSerial)) return false;
  g_counts.forced_serial.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool should_force_flush() noexcept {
  if (!consult(Hook::PostCommit, ActionKind::ForceFlush)) return false;
  g_counts.forced_flush.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool perturb(Hook h) noexcept {
  const Rule* r = consult(h, ActionKind::Delay);
  if (!r) return false;
  g_counts.delays[static_cast<int>(h)].fetch_add(1,
                                                 std::memory_order_relaxed);
  if (r->delay_ns == 0)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::nanoseconds(r->delay_ns));
  return true;
}

void set_thread_stream(std::uint32_t strm) noexcept {
  ThreadStream& ts = stream();
  ts.pinned = true;
  ts.id = strm;
  std::memset(ts.n, 0, sizeof(ts.n));
}

Counts snapshot() noexcept {
  Counts c;
  for (int h = 0; h < kHookCount; ++h) {
    for (int a = 0; a < kCauseCount; ++a)
      c.injected[h][a] =
          g_counts.injected[h][a].load(std::memory_order_relaxed);
    c.delays[h] = g_counts.delays[h].load(std::memory_order_relaxed);
  }
  c.forced_serial = g_counts.forced_serial.load(std::memory_order_relaxed);
  c.forced_flush = g_counts.forced_flush.load(std::memory_order_relaxed);
  return c;
}

void reset_counts() noexcept {
  for (int h = 0; h < kHookCount; ++h) {
    for (int a = 0; a < kCauseCount; ++a)
      g_counts.injected[h][a].store(0, std::memory_order_relaxed);
    g_counts.delays[h].store(0, std::memory_order_relaxed);
  }
  g_counts.forced_serial.store(0, std::memory_order_relaxed);
  g_counts.forced_flush.store(0, std::memory_order_relaxed);
}

std::string report() {
  const Counts c = snapshot();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "fault injection: %llu aborts, %llu delays, %llu forced "
                "serial, %llu forced flushes\n",
                static_cast<unsigned long long>(c.injected_total()),
                static_cast<unsigned long long>(c.delays_total()),
                static_cast<unsigned long long>(c.forced_serial),
                static_cast<unsigned long long>(c.forced_flush));
  out += line;
  for (int h = 0; h < kHookCount; ++h) {
    for (int a = 0; a < kCauseCount; ++a) {
      if (c.injected[h][a] == 0) continue;
      std::snprintf(line, sizeof(line), "  %s <- %s: %llu\n",
                    to_string(static_cast<Hook>(h)),
                    to_string(static_cast<AbortCause>(a)),
                    static_cast<unsigned long long>(c.injected[h][a]));
      out += line;
    }
    if (c.delays[h] != 0) {
      std::snprintf(line, sizeof(line), "  %s delays: %llu\n",
                    to_string(static_cast<Hook>(h)),
                    static_cast<unsigned long long>(c.delays[h]));
      out += line;
    }
  }
  return out;
}

void init_from_env() noexcept {
  const char* seed_s = std::getenv("TLE_FAULT_SEED");
  if (!seed_s || !*seed_s) return;
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(seed_s, &end, 0);
  if (!end || *end != '\0') {
    std::fprintf(stderr, "tle: ignoring malformed TLE_FAULT_SEED=%s\n",
                 seed_s);
    return;
  }
  const char* spec = std::getenv("TLE_FAULT_PLAN");
  if (!spec || !*spec) spec = default_spec();
  if (!install_spec(spec, seed))
    std::fprintf(stderr, "tle: ignoring malformed TLE_FAULT_PLAN=%s\n", spec);
}

namespace {
/// Arms the env-driven chaos plan before main() in any binary that links
/// the TM core — the same zero-friction activation as TLE_STATS_DUMP.
struct EnvInit {
  EnvInit() { init_from_env(); }
};
EnvInit g_env_init;
}  // namespace

}  // namespace tle::fault
