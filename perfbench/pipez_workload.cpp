// pipez: the PBZip2-shaped pipeline (Figure 2's application). One request is
// a round trip of a seeded 8 MiB corpus at block size 100K: compress, then
// decompress, with 3 consumer threads. The round trip must reproduce the
// corpus byte for byte, block by block.
#include <malloc.h>

#include <cstdio>
#include <cstring>

#include "bzip/block_codec.hpp"
#include "pipez/pipeline.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCorpusBytes = 8u << 20;
constexpr std::size_t kWarmupBytes = 1u << 20;
constexpr std::size_t kBlock = 100000;
constexpr int kWorkers = 3;

std::size_t blocks_of(std::size_t bytes) { return (bytes + kBlock - 1) / kBlock; }

/// Blocks of `got` that differ from `want` (a short or failed output
/// fails every block it does not reproduce).
std::uint64_t bad_blocks(const std::vector<std::uint8_t>& want,
                         const tle::pipez::DecompressResult& got) {
  std::uint64_t bad = 0;
  for (std::size_t lo = 0; lo < want.size(); lo += kBlock) {
    const std::size_t n = std::min(kBlock, want.size() - lo);
    if (!got.ok || got.data.size() < lo + n ||
        std::memcmp(got.data.data() + lo, want.data() + lo, n) != 0)
      ++bad;
  }
  if (!bad && got.data.size() != want.size()) bad = 1;
  if (!got.ok) std::fprintf(stderr, "perfbench: pipez: %s\n", got.error.c_str());
  return bad;
}

class PipezWorkload final : public Workload {
 public:
  explicit PipezWorkload(Inject inject) : inject_(inject) {
    cfg_.worker_threads = kWorkers;
    cfg_.block_size = kBlock;
  }

  void setup(std::uint64_t seed, Checks& checks) override {
    corpus_ = tle::pipez::make_corpus(kCorpusBytes, seed);
    const std::vector<std::uint8_t> head(corpus_.begin(),
                                         corpus_.begin() + kWarmupBytes);
    auto out = tle::pipez::decompress(tle::pipez::compress(head, cfg_), cfg_);
    checks.add(blocks_of(head.size()), bad_blocks(head, out));
  }

  void begin_phase(bool traced) override {
    recording_ = !traced;
    if (!recording_) return;
    compress_s_.clear();
    decompress_s_.clear();
  }

  Round round(Checks& checks) override {
    // compress and decompress start new threads, which may draw another
    // malloc arena than the last round's: give freed pages back first, so
    // that peak_rss_mb counts what one round holds (as in videnc).
    malloc_trim(0);
    const double t0 = now_s();
    const auto stream = tle::pipez::compress(corpus_, cfg_);
    const double t1 = now_s();
    auto out = tle::pipez::decompress(stream, cfg_);
    const double t2 = now_s();
    if (recording_) {
      compress_s_.push_back(t1 - t0);
      decompress_s_.push_back(t2 - t1);
    }

    if (inject_ == Inject::PipezByte && !injected_ && !out.data.empty()) {
      out.data[out.data.size() / 2] ^= 0x01;
      injected_ = true;
    }
    const std::uint64_t bad = bad_blocks(corpus_, out);
    if (bad)
      std::fprintf(stderr, "perfbench: pipez: %llu blocks differ\n",
                   static_cast<unsigned long long>(bad));
    checks.add(blocks_of(corpus_.size()), bad);

    Round r;
    r.wall_s = t2 - t0;
    r.requests = 1;
    r.units = static_cast<double>(blocks_of(corpus_.size()));
    r.latency_us.push_back(r.wall_s * 1e6);
    return r;
  }

  void layer_metrics(LayerValues& out, Checks& checks) override {
    const double mb = static_cast<double>(corpus_.size()) / 1e6;
    const double comp_wall = median(compress_s_);
    const double decomp_wall = median(decompress_s_);
    out["pipez.compress_mb_s"] = mb / comp_wall;
    out["pipez.decompress_mb_s"] = mb / decomp_wall;

    // The codec alone: single-threaded calls over the same blocks.
    double comp_s = 0, decomp_s = 0;
    std::uint64_t bad = 0;
    for (std::size_t lo = 0; lo < corpus_.size(); lo += kBlock) {
      const std::size_t n = std::min(kBlock, corpus_.size() - lo);
      const double t0 = now_s();
      const auto packed = tle::bzip::compress_block(corpus_.data() + lo, n);
      const double t1 = now_s();
      const auto plain = tle::bzip::decompress_block(packed);
      const double t2 = now_s();
      comp_s += t1 - t0;
      decomp_s += t2 - t1;
      if (!plain.ok || plain.data.size() != n ||
          std::memcmp(plain.data.data(), corpus_.data() + lo, n) != 0)
        ++bad;
    }
    checks.add(blocks_of(corpus_.size()), bad);
    const double bytes = static_cast<double>(corpus_.size());
    out["bzip.compress_ns_per_byte"] = comp_s * 1e9 / bytes;
    out["bzip.decompress_ns_per_byte"] = decomp_s * 1e9 / bytes;
    out["pipez.compress_efficiency"] = comp_s / (comp_wall * kWorkers);
    out["pipez.decompress_efficiency"] = decomp_s / (decomp_wall * kWorkers);
  }

 private:
  const Inject inject_;
  tle::pipez::Config cfg_;
  std::vector<std::uint8_t> corpus_;
  std::vector<double> compress_s_, decompress_s_;
  bool recording_ = false;
  bool injected_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_pipez(Inject inject) {
  return std::make_unique<PipezWorkload>(inject);
}

}  // namespace perfbench
