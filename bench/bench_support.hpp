// Shared helpers for the figure-reproduction benchmarks.
#pragma once

#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "tm/tm.hpp"
#include "util/env.hpp"

namespace tle::bench {

/// Attach the paper's evaluation counters (Figure 4 / §VII-A style) to a
/// benchmark state from a stats snapshot delta.
inline void attach_tm_counters(benchmark::State& state,
                               const StatsSnapshot& s) {
  state.counters["txns"] =
      static_cast<double>(s.commits + s.serial_commits);
  state.counters["abort_pct"] = 100.0 * s.abort_rate();
  state.counters["serial_pct"] = 100.0 * s.serial_fraction();
  state.counters["conflicts"] =
      static_cast<double>(s.aborts[static_cast<int>(AbortCause::Conflict)] +
                          s.aborts[static_cast<int>(AbortCause::Validation)]);
  state.counters["capacity"] =
      static_cast<double>(s.aborts[static_cast<int>(AbortCause::Capacity)]);
  state.counters["spurious"] =
      static_cast<double>(s.aborts[static_cast<int>(AbortCause::Spurious)]);
  state.counters["quiesce"] = static_cast<double>(s.quiesce_calls);
  state.counters["q_waits"] = static_cast<double>(s.quiesce_waits);
}

/// The five paper configurations, in presentation order.
inline const ExecMode kPaperModes[] = {
    ExecMode::Lock, ExecMode::StmSpin, ExecMode::StmCondVar,
    ExecMode::StmCondVarNoQ, ExecMode::Htm};

/// Short mode tags for benchmark names.
inline const char* mode_tag(ExecMode m) {
  switch (m) {
    case ExecMode::Lock: return "pthread";
    case ExecMode::StmSpin: return "STM+Spin";
    case ExecMode::StmCondVar: return "STM+CondVar";
    case ExecMode::StmCondVarNoQ: return "STM+CondVar+NoQ";
    case ExecMode::Htm: return "HTM+CondVar";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// BENCH_tm_ops.json ("tle-tm-ops/v1")
// ---------------------------------------------------------------------------
//
// abl_overhead emits a machine-readable per-op overhead record so perf PRs
// have a diffable trajectory. scripts/summarize_bench.py ingests it. Schema:
//
//   {
//     "schema": "tle-tm-ops/v1",
//     "secs_per_cell": <double>,           // wall seconds per (workload,mode)
//     "results": [                         // one cell per workload x ExecMode
//       { "workload": "read_only|write_heavy|read_own_write|large_read_set",
//         "mode": <mode_tag string>,       // "pthread", "STM+CondVar", ...
//         "threads": <int>,
//         "txns": <uint>,                  // committed logical transactions
//         "ops_per_sec": <double>,         // txns / wall-sec
//         "accesses_per_sec": <double>,    // tm reads+writes / wall-sec
//         "abort_pct": <double>, "serial_pct": <double>,
//         "quiesce_waits": <uint>, "quiesce_spins": <uint>,
//         "htm_read_dedup": <uint>,        // repeat HTM reads from value log
//         "htm_rw_hits": <uint> },         // HTM reads from write buffer
//       ... ]
//   }

/// Minimal JSON emitter for the bench artifacts above. Handles commas and
/// nesting; callers pass identifier-safe strings (no escaping performed).
class JsonWriter {
 public:
  void begin_obj() { open('{'); }
  void end_obj() { close('}'); }
  void begin_arr() { open('['); }
  void end_arr() { close(']'); }

  /// Emit `"k":` and leave the value to a following begin_obj/begin_arr.
  void key(const char* k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    value_pending_ = true;
  }

  void kv(const char* k, const char* v) {
    key(k);
    out_ += '"';
    out_ += v;
    out_ += '"';
    value_pending_ = false;
  }
  void kv(const char* k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    key(k);
    out_ += buf;
    value_pending_ = false;
  }
  void kv(const char* k, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    key(k);
    out_ += buf;
    value_pending_ = false;
  }
  /// `"k":null`, for a value that is undefined, such as a ratio over zero.
  void kv_null(const char* k) {
    key(k);
    out_ += "null";
    value_pending_ = false;
  }

  const std::string& str() const { return out_; }

  bool write_file(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  void comma() {
    if (!first_ && !value_pending_) out_ += ',';
    first_ = false;
  }
  void open(char c) {
    comma();
    out_ += c;
    first_ = true;
    value_pending_ = false;
  }
  void close(char c) {
    out_ += c;
    first_ = false;
    value_pending_ = false;
  }

  std::string out_;
  bool first_ = true;
  bool value_pending_ = false;
};

}  // namespace tle::bench
