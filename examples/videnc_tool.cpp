// videnc_tool — the x265-style encoder driver.
//
//   ./videnc_tool [-w width] [-h height] [-f frames] [-p workers]
//                 [-F frame_threads] [-q qp] [-g gop] [-m mode]
//
// Encodes a synthetic clip under the chosen TLE configuration and prints
// bitrate, PSNR, timing, and the TM statistics the paper's Figure 4 reports.
#include <cstdio>
#include <cstring>
#include <string>

#include "tm/obs/metrics.hpp"
#include "tm/tm.hpp"
#include "videnc/encoder.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  tle::videnc::EncoderConfig cfg;
  tle::set_exec_mode(tle::ExecMode::StmCondVar);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "-w")
      cfg.width = std::atoi(next());
    else if (a == "-h")
      cfg.height = std::atoi(next());
    else if (a == "-f")
      cfg.frames = std::atoi(next());
    else if (a == "-p")
      cfg.worker_threads = std::atoi(next());
    else if (a == "-F")
      cfg.frame_threads = std::atoi(next());
    else if (a == "-q")
      cfg.qp = std::atoi(next());
    else if (a == "-g")
      cfg.gop = std::atoi(next());
    else if (a == "-S")
      cfg.slices = std::atoi(next());
    else if (a == "-m")
      tle::set_exec_mode(parse_mode(next()));
    else {
      std::fprintf(stderr,
                   "usage: videnc_tool [-w W] [-h H] [-f frames] [-p workers] "
                   "[-F frame_threads] [-q qp] [-g gop] [-S slices] [-m mode]\n");
      return 2;
    }
  }

  std::printf("mode=%s %dx%d frames=%d workers=%d frame_threads=%d qp=%d\n",
              tle::to_string(tle::config().mode), cfg.width, cfg.height,
              cfg.frames, cfg.worker_threads, cfg.frame_threads, cfg.qp);

  tle::reset_stats();
  const auto r = tle::videnc::encode(cfg);
  const double fps =
      r.stats.seconds > 0 ? double(r.stats.frames) / r.stats.seconds : 0;
  std::printf(
      "encoded %llu frames: %llu bits (%.1f kb/frame), PSNR %.2f dB, "
      "%.3f s (%.1f fps)\n",
      (unsigned long long)r.stats.frames, (unsigned long long)r.stats.bits,
      r.stats.frames ? double(r.stats.bits) / 1000.0 / double(r.stats.frames)
                     : 0,
      r.stats.psnr, r.stats.seconds, fps);
  std::printf("\nTM statistics:\n%s", tle::aggregate_stats().report().c_str());
  report_live_metrics();
  return 0;
}
