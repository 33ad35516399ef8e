// pipez_tool — the PBZip2-style command-line compressor.
//
//   ./pipez_tool compress   <in> <out> [-p threads] [-b block_kb] [-m mode]
//   ./pipez_tool decompress <in> <out> [-p threads] [-m mode]
//   ./pipez_tool selftest   [-s size_mb] [-p threads] [-b block_kb] [-m mode]
//
// mode = lock | spin | stm | noq | htm (default stm). selftest generates a
// synthetic corpus, compresses, decompresses, verifies, and prints the
// paper-style TM statistics.
#include <cstdio>
#include <cstring>
#include <string>

#include "pipez/pipeline.hpp"
#include "tm/obs/metrics.hpp"
#include "tm/tm.hpp"

namespace {

// When TLE_METRICS_OUT/TLE_METRICS_PROM armed the interval sampler, close
// the console report with a rollup of the retained windows.
void report_live_metrics() {
  if (!tle::obs::metrics_enabled()) return;
  const auto hist = tle::obs::metrics_history();
  if (hist.empty()) return;
  std::uint64_t commits = 0, aborts = 0, peak_limbo = 0;
  std::uint32_t peak_inflight = 0;
  for (const auto& w : hist) {
    commits += w.commits;
    aborts += w.aborts;
    if (w.gauges.inflight_txns > peak_inflight)
      peak_inflight = w.gauges.inflight_txns;
    if (w.gauges.limbo_pending > peak_limbo)
      peak_limbo = w.gauges.limbo_pending;
  }
  std::printf(
      "\nlive metrics: %zu window(s) retained (last #%llu): %llu commits, "
      "%llu aborts; peak inflight=%u, peak limbo=%llu\n",
      hist.size(), (unsigned long long)hist.back().index,
      (unsigned long long)commits, (unsigned long long)aborts, peak_inflight,
      (unsigned long long)peak_limbo);
}

tle::ExecMode parse_mode(const std::string& s) {
  if (s == "lock") return tle::ExecMode::Lock;
  if (s == "spin") return tle::ExecMode::StmSpin;
  if (s == "stm") return tle::ExecMode::StmCondVar;
  if (s == "noq") return tle::ExecMode::StmCondVarNoQ;
  if (s == "htm") return tle::ExecMode::Htm;
  std::fprintf(stderr, "unknown mode '%s', using stm\n", s.c_str());
  return tle::ExecMode::StmCondVar;
}

void report(const char* what, const tle::pipez::RunStats& s) {
  std::printf("%s: %llu blocks, %llu -> %llu bytes (%.2fx) in %.3f s\n", what,
              (unsigned long long)s.blocks, (unsigned long long)s.in_bytes,
              (unsigned long long)s.out_bytes,
              s.out_bytes ? double(s.in_bytes) / double(s.out_bytes) : 0.0,
              s.seconds);
}

int usage() {
  std::fprintf(stderr,
               "usage: pipez_tool compress|decompress <in> <out> [-p N] "
               "[-b KB] [-m mode]\n"
               "       pipez_tool selftest [-s MB] [-p N] [-b KB] [-m mode]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  tle::pipez::Config cfg;
  long selftest_mb = 4;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "-p")
      cfg.worker_threads = std::atoi(next());
    else if (a == "-b")
      cfg.block_size = static_cast<std::size_t>(std::atol(next())) * 1000;
    else if (a == "-m")
      tle::set_exec_mode(parse_mode(next()));
    else if (a == "-s")
      selftest_mb = std::atol(next());
    else
      positional.push_back(a);
  }
  std::printf("mode=%s threads=%d block=%zu\n",
              tle::to_string(tle::config().mode), cfg.worker_threads,
              cfg.block_size);

  if (cmd == "selftest") {
    const auto input = tle::pipez::make_corpus(
        static_cast<std::size_t>(selftest_mb) * 1000 * 1000, 42);
    tle::reset_stats();
    tle::pipez::RunStats cs{}, ds{};
    const auto compressed = tle::pipez::compress(input, cfg, &cs);
    report("compress", cs);
    const auto back = tle::pipez::decompress(compressed, cfg, &ds);
    report("decompress", ds);
    if (!back.ok || back.data != input) {
      std::fprintf(stderr, "SELFTEST FAILED: %s\n", back.error.c_str());
      return 1;
    }
    std::printf("roundtrip verified OK\n\nTM statistics:\n%s",
                tle::aggregate_stats().report().c_str());
    report_live_metrics();
    return 0;
  }

  if (positional.size() != 2) return usage();

  // The file commands use the streaming interface: blocks are read, worked
  // on, and written concurrently, PBZip2-style.
  if (cmd == "compress") {
    const auto r = tle::pipez::compress_file(positional[0], positional[1], cfg);
    if (!r.ok) {
      std::fprintf(stderr, "compress failed: %s\n", r.error.c_str());
      return 1;
    }
    report("compress", r.stats);
    return 0;
  }
  if (cmd == "decompress") {
    const auto r = tle::pipez::decompress_file(positional[0], positional[1], cfg);
    if (!r.ok) {
      std::fprintf(stderr, "decompress failed: %s\n", r.error.c_str());
      return 1;
    }
    report("decompress", r.stats);
    return 0;
  }
  return usage();
}
