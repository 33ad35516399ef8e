// perfbench — the repository benchmark. Runs one closed-loop workload for a
// fixed time and prints its end-to-end metrics (or, with --trace 1, its
// per-layer metrics) as the last line of stdout:
//
//   perfbench --workload pipez|videnc|set-read|set-update --seed N
//             --seconds S --trace 0|1 [--inject CHECK] [--deadline D]
//
// --trace 0 sets up the workload five times (setup_s is the median), then
// times rounds for S seconds with observability off. --trace 1 sets up once,
// times S/2 seconds untraced and S/2 seconds with per-site profiling on, and
// then runs the single-threaded calibrations; it reports per-layer metrics
// and trace.overhead_pct, the traced phase's ops_s loss against the untraced.
//
// --inject breaks one correctness check on purpose (pipez-byte,
// videnc-frame, videnc-stream, set-key); the run must then fail.
//
// --deadline sets how long the run may take in all, in seconds (default
// S + 140); the self-test shortens it to prove the guard fires.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage
// or a refused environment, 3 when the runtime configuration drifted from
// the one the workload pins, 4 when the run passed its deadline (a hang: it
// names the stage on stderr and prints no result).
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "tm/obs/site.hpp"
#include "tm/stats.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

const Spec kSpecs[] = {
    {"pipez", tle::ExecMode::Htm, 0.40, make_pipez},
    {"videnc", tle::ExecMode::Htm, 0.40, make_videnc},
    {"set-read", tle::ExecMode::StmCondVarNoQ, 0.0, make_set_read},
    {"set-update", tle::ExecMode::Htm, 0.40, make_set_update},
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_s", "1/s"},
    {"op_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr int kSetups = 5;
constexpr std::size_t kMinRounds = 3;
constexpr double kDeadlineSlackS = 140;

/// Where the run is, for the deadline message.
std::atomic<const char*> g_stage{"start"};
std::atomic<std::size_t> g_rounds{0};

/// Ends the process with status 4 and no result line if it is still alive
/// `seconds` after construction, so that a hung run fails with a message
/// naming its stage instead of running until something kills it.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : thread_([this, seconds] { watch(seconds); }) {}

  ~Deadline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

 private:
  void watch(double seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                     [this] { return done_; }))
      return;
    const tle::StatsSnapshot s = tle::aggregate_stats();
    std::fprintf(stderr,
                 "perfbench: no result after %.1f s, stopping (stage %s, %zu "
                 "timed rounds; txn starts %llu, commits %llu, serial %llu, "
                 "quiesce waits %llu, parked waits %llu)\n",
                 seconds, g_stage.load(), g_rounds.load(),
                 static_cast<unsigned long long>(s.txn_starts),
                 static_cast<unsigned long long>(s.commits),
                 static_cast<unsigned long long>(s.serial_commits),
                 static_cast<unsigned long long>(s.quiesce_waits),
                 static_cast<unsigned long long>(s.parked_waits));
    std::_Exit(4);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the rest is constructed
};

/// Namespace-scope, so constant-initialized: the configuration every
/// RuntimeConfig field defaults to, padding included.
const tle::RuntimeConfig kDefaults{};

struct Options {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::None;
  double deadline = 0;  // 0: seconds + kDeadlineSlackS
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pipez|videnc|set-read|set-update --seed N --seconds S "
               "--trace 0|1 [--inject pipez-byte|videnc-frame|videnc-stream|"
               "set-key] [--deadline D]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      for (const Spec& s : kSpecs)
        if (val == s.name) o.spec = &s;
      if (!o.spec) usage(("unknown workload " + val).c_str());
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
      if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds out of range");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (arg == "--deadline") {
      o.deadline = std::strtod(val.c_str(), nullptr);
      if (!(o.deadline > 0)) usage("--deadline must be positive");
    } else if (arg == "--inject") {
      if (val == "pipez-byte") o.inject = Inject::PipezByte;
      else if (val == "videnc-frame") o.inject = Inject::VidencFrame;
      else if (val == "videnc-stream") o.inject = Inject::VidencStream;
      else if (val == "set-key") o.inject = Inject::SetKey;
      else usage(("unknown check " + val).c_str());
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!o.spec) usage("--workload is required");
  return o;
}

/// Runtime switches that change the program being measured: fault plans,
/// the controller, the metrics sampler, the flight recorder, exit dumps.
bool environment_clean() {
  static const char* const kPrefixes[] = {"TLE_FAULT_", "TLE_CTL",
                                          "TLE_METRICS_", "TLE_TRACE",
                                          "TLE_STATS_DUMP="};
  bool clean = true;
  for (char** e = environ; *e; ++e)
    for (const char* p : kPrefixes)
      if (std::strncmp(*e, p, std::strlen(p)) == 0) {
        std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
        clean = false;
      }
  return clean;
}

/// The configuration a workload runs under: set_exec_mode() (which also
/// fixes the quiescence policy the paper pairs with the mode) and the HTM
/// spurious-abort rate. Every other field must keep its default.
bool config_pinned(const Spec& s) {
  if (const char* why = tle::validate_config(tle::config())) {
    std::fprintf(stderr, "perfbench: invalid runtime config: %s\n", why);
    return false;
  }
  tle::RuntimeConfig want;
  std::memcpy(&want, &kDefaults, sizeof want);
  want.mode = s.mode;
  want.quiesce = tle::QuiescePolicy::Always;
  want.honor_noquiesce = s.mode == tle::ExecMode::StmCondVarNoQ;
  want.htm_spurious_abort_rate = s.htm_spurious_abort_rate;
  if (std::memcmp(&want, &tle::config(), sizeof want) != 0) {
    std::fprintf(stderr, "perfbench: runtime config differs from the pinned one\n");
    return false;
  }
  return true;
}

/// Request throughput and latency of one timed phase.
struct Phase {
  std::vector<double> rates;             // requests per second, per round
  std::vector<double> p50_us;            // per-round medians
  double units = 0;
  std::size_t samples = 0;

  double ops_s() const { return median(rates); }
  double p50() const { return mid_mean(p50_us); }
};

Phase run_phase(Workload& wl, double seconds, bool traced, Checks& checks) {
  Phase ph;
  wl.begin_phase(traced);
  const double t0 = now_s();
  while (ph.rates.size() < kMinRounds || now_s() - t0 < seconds) {
    Round r = wl.round(checks);
    g_rounds.fetch_add(1, std::memory_order_relaxed);
    ph.rates.push_back(r.requests / r.wall_s);
    ph.units += r.units;
    ph.samples += r.latency_us.size();
    ph.p50_us.push_back(quantile(r.latency_us, 0.50));
  }
  return ph;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_result(const Checks& checks, const std::vector<MetricDef>& defs,
                  const LayerValues& values) {
  std::string json = "{\"correct\": ";
  json += checks.failed ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(checks.checked);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", defs[i].name.c_str());
      v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::printf("# %-48s %14.6g %s\n", defs[i].name.c_str(), v,
                defs[i].unit.c_str());
    json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Options& o) {
  const Spec& spec = *o.spec;
  tle::set_exec_mode(spec.mode);
  tle::config().htm_spurious_abort_rate = spec.htm_spurious_abort_rate;
  if (!config_pinned(spec)) return 3;

  g_stage = "set-up";
  std::unique_ptr<Workload> wl = spec.make(o.inject);
  Checks checks;
  std::vector<double> setup_s;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    const double t0 = now_s();
    wl->setup(o.seed, checks);
    setup_s.push_back(now_s() - t0);
  }

  LayerValues values;
  std::vector<MetricDef> defs;
  g_stage = "timed";
  if (!o.trace) {
    Phase ph = run_phase(*wl, o.seconds, false, checks);
    values["setup_s"] = median(setup_s);
    values["ops_s"] = ph.ops_s();
    values["op_p50_us"] = ph.p50();
    values["peak_rss_mb"] = peak_rss_mb();
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    std::printf("# %s seed %llu: %zu rounds, %zu latency samples, %.0f units\n",
                spec.name, static_cast<unsigned long long>(o.seed),
                ph.rates.size(), ph.samples, ph.units);
    std::printf("# set-up times (s):");
    for (double t : setup_s) std::printf(" %.4f", t);
    std::printf("\n");
  } else {
    Phase plain = run_phase(*wl, o.seconds / 2, false, checks);
    tle::reset_stats();
    tle::obs::reset_site_profiles();
    tle::obs::profile_enable(true);
    g_stage = "traced";
    Phase traced = run_phase(*wl, o.seconds / 2, true, checks);
    tle::obs::profile_enable(false);
    g_stage = "calibrations";
    engine_metrics(traced.units, values);
    wl->layer_metrics(values, checks);
    calibrate_tm(values);
    values["trace.overhead_pct"] =
        100 * (plain.ops_s() - traced.ops_s()) / plain.ops_s();
    defs = layer_metric_defs();
  }
  if (!config_pinned(spec)) return 3;
  values["fail_ratio"] =
      checks.checked ? static_cast<double>(checks.failed) / checks.checked : 1;
  print_result(checks, defs, values);
  g_stage = "teardown";
  return checks.failed ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  if (!perfbench::environment_clean()) return 2;
  perfbench::Deadline deadline(
      o.deadline > 0 ? o.deadline : o.seconds + perfbench::kDeadlineSlackS);
  return perfbench::run(o);
}
