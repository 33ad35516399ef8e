// videnc: the x265-shaped wavefront encoder (Figure 3's application). One
// request encodes a seeded 300-frame 240x144 clip with 3 WPP workers, one
// frame at a time.
//
// One frame in flight, not x265's three: with several, a CTU's motion search
// (centred on the hint of the CTU above) can read reference rows beyond the
// r+1 the encoder waits for, while another frame thread still writes them,
// and the output then differs from run to run. With one, each reference is
// complete before it is read; the WPP rows still wait on each other through
// the CTU-rows condition variable and fall back to the serial lock under HTM.
//
// Correctness: the first timed encode is decoded with decode_video and must
// match the encoder's reconstruction frame for frame; every later encode
// (including the traced run's serial Lock-mode calibration) must reproduce
// that bitstream and reconstruction exactly.
#include <malloc.h>

#include <cstdio>

#include "videnc/decoder.hpp"
#include "videnc/encoder.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kWidth = 240;
constexpr int kHeight = 144;
constexpr int kFrames = 300;
constexpr int kWarmupFrames = 60;
constexpr int kWorkers = 3;
constexpr int kFrameThreads = 1;

using tle::videnc::Plane;

/// Frames that differ between `a` and `b`; a frame only one side has counts
/// as differing.
std::uint64_t bad_frames(const std::vector<Plane>& a,
                         const std::vector<Plane>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::uint64_t bad = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i) bad += !(a[i] == b[i]);
  return bad;
}

class VidencWorkload final : public Workload {
 public:
  explicit VidencWorkload(Inject inject) : inject_(inject) {
    cfg_.width = kWidth;
    cfg_.height = kHeight;
    cfg_.frames = kFrames;
    cfg_.worker_threads = kWorkers;
    cfg_.frame_threads = kFrameThreads;
    cfg_.keep_recon = true;
  }

  void setup(std::uint64_t seed, Checks& checks) override {
    clip_.clear();
    for (int i = 0; i < kFrames; ++i)
      clip_.push_back(tle::videnc::synth_frame(kWidth, kHeight, i, seed));
    const std::vector<Plane> head(clip_.begin(), clip_.begin() + kWarmupFrames);
    tle::videnc::EncoderConfig cfg = cfg_;
    cfg.frames = kWarmupFrames;
    const auto r = tle::videnc::encode_planes(head, cfg);
    checks.add(kWarmupFrames, decode_mismatches(r));
    ref_stream_.clear();
    ref_recon_.clear();
  }

  void begin_phase(bool traced) override {
    recording_ = !traced;
    if (recording_) wall_s_.clear();
  }

  Round round(Checks& checks) override {
    // Every encode starts new worker threads, which may be handed a malloc
    // arena other than the last encode's; the frames freed in the old one
    // would stay resident and make peak_rss_mb depend on that draw. Give
    // them back first, so the peak counts what one encode holds.
    malloc_trim(0);
    const double t0 = now_s();
    auto r = tle::videnc::encode_planes(clip_, cfg_);
    const double wall = now_s() - t0;
    if (recording_) wall_s_.push_back(wall);
    check(r, checks);

    Round out;
    out.wall_s = wall;
    out.requests = 1;
    out.units = kFrames;
    out.latency_us.push_back(wall * 1e6);
    return out;
  }

  void layer_metrics(LayerValues& out, Checks& checks) override {
    const double wall = median(wall_s_);
    out["videnc.frames_s"] = kFrames / wall;

    // The encoder alone: the paper's 1-thread pthread baseline.
    const tle::ExecMode mode = tle::config().mode;
    tle::set_exec_mode(tle::ExecMode::Lock);
    tle::videnc::EncoderConfig cfg = cfg_;
    cfg.worker_threads = 1;
    cfg.frame_threads = 1;
    const double t0 = now_s();
    auto r = tle::videnc::encode_planes(clip_, cfg);
    const double serial = now_s() - t0;
    tle::set_exec_mode(mode);
    check(r, checks);
    out["videnc.serial_frame_ms"] = serial * 1e3 / kFrames;
    out["videnc.efficiency"] = serial / (wall * kWorkers);
  }

 private:
  std::uint64_t decode_mismatches(const tle::videnc::EncodeResult& r) const {
    const auto dec = tle::videnc::decode_video(r.bitstream, kWidth, kHeight);
    if (!dec.ok)
      std::fprintf(stderr, "perfbench: videnc decode: %s\n", dec.error.c_str());
    return dec.ok ? bad_frames(dec.frames, r.recon)
                  : std::max<std::size_t>(r.recon.size(), 1);
  }

  void check(tle::videnc::EncodeResult& r, Checks& checks) {
    if (inject_ == Inject::VidencFrame && !injected_ && !r.recon.empty()) {
      r.recon.pop_back();
      injected_ = true;
    }
    std::uint64_t bad = 0;
    if (ref_stream_.empty()) {
      // Reference encode: the decoder must reproduce the reconstruction.
      bad = decode_mismatches(r);
      ref_stream_ = r.bitstream;
      ref_recon_ = std::move(r.recon);
    } else {
      if (inject_ == Inject::VidencStream && !injected_ && !r.bitstream.empty()) {
        r.bitstream[r.bitstream.size() / 2] ^= 0x01;
        injected_ = true;
      }
      bad = bad_frames(ref_recon_, r.recon);
      if (r.bitstream != ref_stream_) {
        std::size_t first = 0;
        while (first < std::min(ref_recon_.size(), r.recon.size()) &&
               ref_recon_[first] == r.recon[first])
          ++first;
        std::fprintf(stderr,
                     "perfbench: videnc bitstream differs from the reference "
                     "(first differing frame %zu; its own decode mismatches %llu "
                     "frames)\n",
                     first,
                     static_cast<unsigned long long>(decode_mismatches(r)));
        ++bad;
      }
    }
    if (bad)
      std::fprintf(stderr, "perfbench: videnc: %llu frame checks failed\n",
                   static_cast<unsigned long long>(bad));
    checks.add(kFrames, bad);
  }

  const Inject inject_;
  tle::videnc::EncoderConfig cfg_;
  std::vector<Plane> clip_;
  std::vector<std::uint8_t> ref_stream_;
  std::vector<Plane> ref_recon_;
  std::vector<double> wall_s_;
  bool recording_ = false;
  bool injected_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_videnc(Inject inject) {
  return std::make_unique<VidencWorkload>(inject);
}

}  // namespace perfbench
