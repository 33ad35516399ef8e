// Shared types of the repository benchmark: the workload interface main.cpp
// runs, the round record it aggregates, correctness accounting, and the
// per-layer metric table every traced run fills.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tm/config.hpp"

namespace perfbench {

/// A correctness check broken on purpose, so the self-test can prove that
/// each check fires.
enum class Inject {
  None,
  PipezByte,     ///< flip one byte of a decompressed pipez block
  VidencFrame,   ///< drop one frame from the encoder's reconstruction
  VidencStream,  ///< flip one byte of a repeated videnc bitstream
  SetKey,        ///< skip one key's successful update in the set replay
};

/// Failed checks over checked units (pipez blocks, videnc frames, set keys).
struct Checks {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t units, std::uint64_t bad) {
    checked += units;
    failed += bad;
  }
};

/// One closed-loop round: the clients issue requests back to back, each
/// waiting for the previous one to complete.
struct Round {
  double wall_s = 0;      ///< wall time of the round
  double requests = 0;    ///< client requests completed
  double units = 0;       ///< work items: pipez blocks, frames, set calls
  std::vector<double> latency_us;  ///< request latencies (sampled for sets)
};

/// Per-layer metric values by name; names missing at output time read 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed`, build the state the rounds run
  /// against, and run an untimed warm-up of the same load. Timed as setup_s.
  virtual void setup(std::uint64_t seed, Checks& checks) = 0;

  /// Start a timed phase. The benchmark's own per-layer timings come from
  /// the untraced phase: an untraced phase replaces earlier records, a
  /// traced one keeps them and records nothing.
  virtual void begin_phase(bool traced) { (void)traced; }

  /// Run one timed round and check its outputs.
  virtual Round round(Checks& checks) = 0;

  /// After the traced phase: the metrics of this workload's own layers
  /// (single-threaded codec or encoder calibrations, set-call latencies by
  /// kind). Calibrations check their outputs too.
  virtual void layer_metrics(LayerValues& out, Checks& checks) = 0;
};

/// One benchmark workload: the paper's configuration plus a factory.
struct Spec {
  const char* name;
  tle::ExecMode mode;
  double htm_spurious_abort_rate;  ///< 0 outside HTM
  std::unique_ptr<Workload> (*make)(Inject inject);
};

std::unique_ptr<Workload> make_pipez(Inject inject);
std::unique_ptr<Workload> make_videnc(Inject inject);
std::unique_ptr<Workload> make_set_read(Inject inject);
std::unique_ptr<Workload> make_set_update(Inject inject);

// --- statistics ---------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Mean of the middle half of `v` (interquartile mean): as robust to
/// outlying rounds as the median, but not stuck on the clock's 1 ns grain
/// when it summarizes per-round latency quantiles.
inline double mid_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Nearest-rank q-quantile (q in (0, 1]); reorders `v`.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  const std::size_t idx = std::min(v.size() - 1, rank ? rank - 1 : 0);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Seconds on the monotonic clock since an arbitrary epoch.
double now_s();

// --- per-layer metrics (layers.cpp) --------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every per-layer metric a traced run reports, in output order. Every
/// workload reports the whole table; a metric of another workload's layer
/// reads 0.
const std::vector<MetricDef>& layer_metric_defs();

/// Engine, sync, governor and per-site metrics of the traced phase, from the
/// runtime's aggregate counters and site profiles, normalized by `units`.
void engine_metrics(double units, LayerValues& out);

/// Single-threaded tm_var read/write and empty-transaction costs under the
/// configured ExecMode.
void calibrate_tm(LayerValues& out);

}  // namespace perfbench
