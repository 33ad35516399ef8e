#include "videnc/encoder.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <semaphore>
#include <thread>

#include "bzip/bitio.hpp"
#include "sync/bounded_queue.hpp"
#include "sync/thread_pool.hpp"
#include "sync/tx_condvar.hpp"
#include "tm/api.hpp"
#include "util/timing.hpp"
#include "videnc/predict.hpp"
#include "videnc/transform.hpp"

namespace tle::videnc {

namespace {

constexpr int kCtu = 16;                       // 16x16 CTUs (4 8x8 blocks)
constexpr auto kDepWait = std::chrono::microseconds(500);  // x265-ish timeout

inline long pack_mv(int mvx, int mvy) {
  return (static_cast<long>(mvx) << 16) | (mvy & 0xFFFF);
}
inline void unpack_mv(long v, int* mvx, int* mvy) {
  *mvx = static_cast<int>(v >> 16);
  *mvy = static_cast<std::int16_t>(v & 0xFFFF);
}

/// A frame's reconstructed plane plus the row-availability state that
/// downstream (inter-predicting) frames wait on. With slices, rows complete
/// out of order, so completion is tracked per row and exposed as the
/// contiguous done-prefix (`frontier`).
struct ReconRef {
  Plane recon;
  int rows;
  std::unique_ptr<tm_var<bool>[]> row_flags;
  tm_var<int> frontier{0};  // rows [0, frontier) are all reconstructed
  elidable_mutex m;
  tx_condvar cv;

  ReconRef(int w, int h, int nrows)
      : recon(w, h), rows(nrows), row_flags(new tm_var<bool>[nrows ? nrows : 1]) {}

  /// Mark row r complete and advance the contiguous frontier.
  void publish_row(int r) {
    critical(m, TLE_TX_SITE("videnc/recon_publish"), [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(row_flags[r], true);
      int f = tx.read(frontier);
      while (f < rows && tx.read(row_flags[f])) ++f;
      tx.write(frontier, f);
      cv.notify_all(tx);
    });
  }
};

/// Global (per-encode) accumulators guarded by the cost lock.
struct CostBoard {
  elidable_mutex cost_lock;
  tm_var<std::uint64_t> bits{0};
  tm_var<std::uint64_t> sad{0};
  tm_var<std::uint64_t> sse{0};
};

// --------------------------------------------------------------------------
// Listing-4 output queue: placeholders are enqueued when a frame is
// submitted (ready = false), the producer fills the payload OUTSIDE the
// lock, then a tiny critical section flips the ready flag. The consumer
// dequeues only ready heads. Every critical section is two-phase.
// --------------------------------------------------------------------------
class FrameOutputQueue {
 public:
  explicit FrameOutputQueue(std::size_t n)
      : payloads_(n),
        ready_(new tm_var<bool>[n]) {}

  std::vector<std::uint8_t>* payload(std::size_t f) { return &payloads_[f]; }

  /// Producer, final stage: mark frame `f` complete.
  void mark_ready(std::size_t f) {
    critical(m_, TLE_TX_SITE("videnc/out_mark_ready"), [&](TxContext& tx) {
      tx.no_quiesce();  // publishing
      tx.write(ready_[f], true);
      cv_.notify_all(tx);
    });
  }

  /// Consumer: block until frame `f` is ready.
  void await(std::size_t f) {
    for (;;) {
      bool ok = false;
      critical(m_, TLE_TX_SITE("videnc/out_await"), [&](TxContext& tx) {
        ok = tx.read(ready_[f]);
        if (!ok) {
          tx.no_quiesce();
          cv_.wait_for(tx, kDepWait);
        }
      });
      if (ok) return;
    }
  }

 private:
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::unique_ptr<tm_var<bool>[]> ready_;
  elidable_mutex m_;  // the "output queue lock" of Listings 3/4
  tx_condvar cv_;
};

// --------------------------------------------------------------------------
// One frame's encode job: WPP rows over the CTU grid.
// --------------------------------------------------------------------------
class FrameJob {
 public:
  FrameJob(Frame frame, std::shared_ptr<ReconRef> ref, int search_range,
           int slices, CostBoard* costs)
      : src_(std::move(frame)),
        ref_(std::move(ref)),
        range_(search_range),
        slices_(slices < 1 ? 1 : (slices > 255 ? 255 : slices)),
        costs_(costs),
        cols_((src_.luma.width() + kCtu - 1) / kCtu),
        rows_((src_.luma.height() + kCtu - 1) / kCtu),
        recon_(std::make_shared<ReconRef>(src_.luma.width(),
                                          src_.luma.height(), rows_)),
        row_progress_(new tm_var<int>[rows_]),
        row_bits_(static_cast<std::size_t>(rows_)),
        ctu_mv_(new tm_var<long>[static_cast<std::size_t>(rows_) * cols_]) {}

  int rows() const noexcept { return rows_; }
  int slices() const noexcept { return slices_; }
  const std::shared_ptr<ReconRef>& recon_ref() const noexcept { return recon_; }
  const Frame& source() const noexcept { return src_; }

  /// Slice partition: slice s covers rows [s*rows/S, (s+1)*rows/S).
  int slice_first_row(int r) const noexcept {
    const int s = slice_of_row(r);
    return s * rows_ / slices_;
  }
  int slice_end_row(int r) const noexcept {
    const int s = slice_of_row(r);
    return (s + 1) * rows_ / slices_;
  }
  int slice_of_row(int r) const noexcept {
    // Inverse of the balanced partition; S is tiny, a scan is clearest.
    for (int s = slices_ - 1; s > 0; --s)
      if (r >= s * rows_ / slices_) return s;
    return 0;
  }

  /// Claim the next unowned row (bonded-task-group lock). -1 when none left.
  int claim_row() {
    int row = -1;
    critical(btg_lock_, TLE_TX_SITE("videnc/btg_claim_row"),
             [&](TxContext& tx) {
      tx.no_quiesce();
      const int next = tx.read(next_row_);
      if (next < rows_) {
        tx.write(next_row_, next + 1);
        row = next;
      }
    });
    return row;
  }

  /// Encode one full CTU row (the claimed job). Returns true if this call
  /// completed the frame.
  bool encode_row(int r) {
    bzip::BitWriter& bw = row_bits_[static_cast<std::size_t>(r)];
    std::uint64_t bits = 0, sad = 0;
    for (int c = 0; c < cols_; ++c) {
      const int frontier = wait_for_dependencies(r, c, ref_rows_read(r, 0));
      // Motion hint from the CTU above (inter frames, non-slice-top rows:
      // the CTU above is only guaranteed complete within the same slice).
      // The search is centred on it, so a hint pointing down needs the
      // reference rows its window reaches as well.
      int hx = 0, hy = 0;
      if (!src_.intra_only && ref_ && r > slice_first_row(r)) {
        unpack_mv(read_mv_hint(r, c), &hx, &hy);
        const int needed = ref_rows_read(r, hy);
        if (needed > frontier) wait_for_dependencies(r, c, needed);
      }
      encode_ctu(r, c, hx, hy, bw, &bits, &sad);
      publish_ctu_done(r, c);
    }
    publish_recon_row(r);
    // Cost lock: accumulate metrics once per row.
    critical(costs_->cost_lock, TLE_TX_SITE("videnc/cost_row"),
             [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(costs_->bits, tx.read(costs_->bits) + bits);
      tx.write(costs_->sad, tx.read(costs_->sad) + sad);
    });
    // EncoderRow lock: shared frame-completion state.
    bool frame_done = false;
    critical(encoder_row_lock_, TLE_TX_SITE("videnc/row_done"),
             [&](TxContext& tx) {
      const int done = tx.read(rows_completed_) + 1;
      tx.write(rows_completed_, done);
      frame_done = done == rows_;
    });
    return frame_done;
  }

  /// Assemble the frame payload (serial; called once, by the row worker
  /// that completed the frame) and account reconstruction quality.
  void finalize(std::vector<std::uint8_t>* out) {
    out->clear();
    out->push_back(static_cast<std::uint8_t>(src_.number));
    out->push_back(static_cast<std::uint8_t>(src_.qp));
    out->push_back(src_.intra_only ? 1 : 0);
    out->push_back(static_cast<std::uint8_t>(slices_));
    for (auto& bw : row_bits_) {
      auto bytes = bw.finish();
      const std::uint32_t n = static_cast<std::uint32_t>(bytes.size());
      out->push_back(static_cast<std::uint8_t>(n));
      out->push_back(static_cast<std::uint8_t>(n >> 8));
      out->push_back(static_cast<std::uint8_t>(n >> 16));
      out->insert(out->end(), bytes.begin(), bytes.end());
    }
    const std::uint64_t sse = plane_sse(src_.luma, recon_->recon);
    critical(costs_->cost_lock, TLE_TX_SITE("videnc/cost_sse"),
             [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(costs_->sse, tx.read(costs_->sse) + sse);
    });
  }

 private:
  /// Reference rows [0, n) that CTU row r's motion search reads when
  /// centred on vertical hint `hy`: each block reaches kBlock - 1 rows below
  /// its origin, plus the ±range_ window; the edge clamp folds rows past the
  /// bottom edge onto the last one.
  int ref_rows_read(int r, int hy) const noexcept {
    const int y1 = std::min((r + 1) * kCtu, src_.luma.height());
    const int blocks_end = (y1 + kBlock - 1) / kBlock * kBlock;
    const int last = blocks_end - 1 + hy + range_;
    return std::clamp(last, 0, src_.luma.height() - 1) / kCtu + 1;
  }

  bool deps_satisfied(TxContext& tx, int r, int c, int ref_rows,
                      int* frontier) {
    // Wavefront: left CTU is ours (sequential in the row); top-right CTU of
    // the row above must be finished — unless this row starts a slice
    // (slices are independent).
    if (r > slice_first_row(r) &&
        tx.read(row_progress_[r - 1]) < std::min(c + 2, cols_))
      return false;
    // Inter frames: the first `ref_rows` reference rows must be
    // reconstructed. The frontier is the contiguous done-prefix, valid
    // under slices too.
    if (src_.intra_only || !ref_) return true;
    *frontier = tx.read(ref_->frontier);
    return *frontier >= ref_rows;
  }

  /// Block until deps_satisfied(r, c, ref_rows); returns the reference
  /// frontier it last read (0 when it read none).
  int wait_for_dependencies(int r, int c, int ref_rows) {
    int frontier = 0;
    if (r == slice_first_row(r) && (src_.intra_only || !ref_)) return frontier;
    for (long spins = 0;; ++spins) {
      bool ok = false;
      critical(ctu_rows_lock_, TLE_TX_SITE("videnc/ctu_deps_wait"),
               [&](TxContext& tx) {
        ok = deps_satisfied(tx, r, c, ref_rows, &frontier);
        if (!ok) {
          tx.no_quiesce();
          ctu_rows_cv_.wait_for(tx, kDepWait);
        }
      });
      if (ok) return frontier;
      if (spins == 8000) {  // ~4 s of 500 us waits: report the stall
        std::fprintf(stderr,
                     "[videnc stall] frame=%d row=%d ctu=%d: above_progress=%d "
                     "ref_rows_done=%d intra=%d\n",
                     src_.number, r, c,
                     r > 0 ? row_progress_[r - 1].unsafe_get() : -1,
                     ref_ ? ref_->frontier.unsafe_get() : -1,
                     src_.intra_only ? 1 : 0);
      }
    }
  }

  void publish_ctu_done(int r, int c) {
    critical(ctu_rows_lock_, TLE_TX_SITE("videnc/ctu_publish"),
             [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(row_progress_[r], c + 1);
      ctu_rows_cv_.notify_all(tx);
    });
  }

  void publish_recon_row(int r) { recon_->publish_row(r); }

  /// Motion-vector hint from the CTU above (PME lock): its row completed
  /// that CTU before our wavefront dependency released us, so the hint is
  /// deterministic.
  long read_mv_hint(int r, int c) {
    long hint = 0;
    critical(pme_lock_, TLE_TX_SITE("videnc/pme_read"), [&](TxContext& tx) {
      tx.no_quiesce();
      hint = tx.read(ctu_mv_[static_cast<std::size_t>(r - 1) * cols_ + c]);
    });
    return hint;
  }

  void write_mv_hint(int r, int c, long mv) {
    critical(pme_lock_, TLE_TX_SITE("videnc/pme_write"), [&](TxContext& tx) {
      tx.no_quiesce();
      tx.write(ctu_mv_[static_cast<std::size_t>(r) * cols_ + c], mv);
    });
  }

  void encode_ctu(int r, int c, int hx, int hy, bzip::BitWriter& bw,
                  std::uint64_t* bits, std::uint64_t* sad) {
    const int x1 = std::min((c + 1) * kCtu, src_.luma.width());
    const int y1 = std::min((r + 1) * kCtu, src_.luma.height());
    long best_mv = 0;

    for (int y0 = r * kCtu; y0 < y1; y0 += kBlock) {
      for (int x0 = c * kCtu; x0 < x1; x0 += kBlock) {
        std::uint8_t pred[kBlockSize];
        std::uint8_t best_pred[kBlockSize];
        std::uint32_t best_sad = ~0u;
        IntraMode best_mode = IntraMode::Dc;
        bool use_inter = false;
        MotionResult best_motion;
        // The prediction/transform kernels are the §VI-e "pure" vector math.
        const int min_y = slice_first_row(r) * kCtu;
        const int max_y = std::min(slice_end_row(r) * kCtu,
                                   src_.luma.height());
        tm_pure([&] {
          // The source block, read once and edge-clamped: the intra SADs,
          // the motion search and the residual all compare these pixels.
          std::uint8_t src[kBlockSize];
          motion_compensate(src_.luma, x0, y0, 0, 0, src);
          for (int m = 0; m < kIntraModes; ++m) {
            intra_predict(recon_->recon, x0, y0, static_cast<IntraMode>(m),
                          pred, min_y, max_y);
            const std::uint32_t s = block_sad(src, pred);
            if (s < best_sad) {
              best_sad = s;
              best_mode = static_cast<IntraMode>(m);
              use_inter = false;
              std::copy(pred, pred + kBlockSize, best_pred);
            }
          }
          if (!src_.intra_only && ref_) {
            const MotionResult mr =
                motion_search(src, ref_->recon, x0, y0, hx, hy, range_);
            if (mr.sad < best_sad) {
              best_sad = mr.sad;
              use_inter = true;
              best_motion = mr;
              motion_compensate(ref_->recon, x0, y0, mr.mvx, mr.mvy,
                                best_pred);
              best_mv = pack_mv(mr.mvx, mr.mvy);
            }
          }
          // Prediction side-info: the stream is fully decodable (decoder.cpp
          // replays these decisions to rebuild the reconstruction exactly).
          bw.put(use_inter ? 1 : 0, 1);
          *bits += 1;
          if (use_inter) {
            *bits += put_se(bw, best_motion.mvx);
            *bits += put_se(bw, best_motion.mvy);
          } else {
            bw.put(static_cast<std::uint64_t>(best_mode), 2);
            *bits += 2;
          }
          // Residual -> transform -> quantize -> entropy; then reconstruct.
          std::int16_t residual[kBlockSize];
          for (int i = 0; i < kBlockSize; ++i)
            residual[i] = static_cast<std::int16_t>(src[i] - best_pred[i]);
          std::int32_t coeffs[kBlockSize];
          fdct8x8(residual, coeffs);
          const std::int32_t step = quant_step(src_.qp);
          quantize(coeffs, step);
          *bits += entropy_encode_block(coeffs, bw);
          dequantize(coeffs, step);
          std::int16_t rec[kBlockSize];
          idct8x8(coeffs, rec);
          for (int y = 0; y < kBlock; ++y)
            for (int x = 0; x < kBlock; ++x) {
              if (x0 + x >= src_.luma.width() || y0 + y >= src_.luma.height())
                continue;
              const int v = best_pred[y * kBlock + x] + rec[y * kBlock + x];
              recon_->recon.set(x0 + x, y0 + y,
                                static_cast<std::uint8_t>(
                                    v < 0 ? 0 : (v > 255 ? 255 : v)));
            }
          *sad += best_sad;
        });
      }
    }
    if (!src_.intra_only && ref_) write_mv_hint(r, c, best_mv);
  }

  Frame src_;
  std::shared_ptr<ReconRef> ref_;  // previous frame's recon (may be null)
  const int range_;
  const int slices_;
  CostBoard* costs_;
  const int cols_;
  const int rows_;
  std::shared_ptr<ReconRef> recon_;

  elidable_mutex ctu_rows_lock_;   // paper: "CTURows lock"
  tx_condvar ctu_rows_cv_;
  elidable_mutex encoder_row_lock_;  // paper: "EncoderRow lock"
  elidable_mutex btg_lock_;          // paper: "bonded task group"
  elidable_mutex pme_lock_;          // paper: "parallel motion estimation"

  tm_var<int> next_row_{0};
  tm_var<int> rows_completed_{0};
  std::unique_ptr<tm_var<int>[]> row_progress_;
  std::vector<bzip::BitWriter> row_bits_;
  std::unique_ptr<tm_var<long>[]> ctu_mv_;
};

EncodeResult run_encode(std::vector<Frame> frames, const EncoderConfig& cfg) {
  Stopwatch sw;
  EncodeResult result;
  const std::size_t n = frames.size();
  if (n == 0) return result;

  CostBoard costs;
  FrameOutputQueue output(n);

  // --- lookahead stage -----------------------------------------------------
  // A producer thread feeds raw frames through the lookahead queue (the
  // "lookahead lock"); the lookahead thread estimates per-frame cost from
  // the previous raw frame and tweaks qp deterministically.
  bounded_queue<Frame*> lookahead_q(
      static_cast<std::size_t>(cfg.lookahead_depth));
  bounded_queue<Frame*> encode_q(static_cast<std::size_t>(cfg.lookahead_depth));

  std::thread source([&] {
    for (auto& f : frames) lookahead_q.push(&f);
    lookahead_q.close();
  });
  std::thread lookahead([&] {
    // Keep a private copy of the previous raw plane: once a frame is handed
    // to the encode queue the submitter may move it away.
    Plane prev;
    bool have_prev = false;
    for (;;) {
      auto f = lookahead_q.pop();
      if (!f.has_value()) break;
      Frame* frame = *f;
      std::uint64_t cost = 0;
      if (have_prev) cost = plane_sse(prev, frame->luma);
      frame->cost_estimate = cost;
      // Deterministic adaptive quantization: busy frames get a coarser qp.
      const std::uint64_t pixels =
          static_cast<std::uint64_t>(frame->luma.width()) *
          static_cast<std::uint64_t>(frame->luma.height());
      if (have_prev && cost > 400 * pixels / 10) frame->qp += 1;
      prev = frame->luma;
      have_prev = true;
      encode_q.push(frame);
    }
    encode_q.close();
  });

  // --- frame encoders over the worker pool ---------------------------------
  thread_pool pool(cfg.worker_threads);
  std::counting_semaphore<64> frame_slots(
      std::max(1, std::min(cfg.frame_threads, 64)));
  // Each frame's job, until the serial writer has taken its output. Pool
  // tasks hold their own references, and the next frame holds the
  // reconstruction it predicts from.
  std::vector<std::shared_ptr<FrameJob>> jobs(n);
  std::shared_ptr<ReconRef> prev_recon;

  std::thread submitter([&] {
    std::size_t next = 0;
    for (;;) {
      auto f = encode_q.pop();
      if (!f.has_value()) break;
      Frame* frame = *f;
      frame_slots.acquire();
      const bool is_intra = frame->intra_only;  // read before the move below
      auto job = std::make_shared<FrameJob>(std::move(*frame),
                                            is_intra ? nullptr : prev_recon,
                                            cfg.search_range, cfg.slices,
                                            &costs);
      prev_recon = job->recon_ref();
      const std::size_t idx = next++;
      jobs[idx] = job;
      // One pool task per WPP row (the bonded task group hands out rows).
      for (int rj = 0; rj < job->rows(); ++rj) {
        pool.submit([job, idx, &output, &frame_slots] {
          const int row = job->claim_row();
          if (row < 0) return;
          if (job->encode_row(row)) {
            job->finalize(output.payload(idx));
            output.mark_ready(idx);
            frame_slots.release();
          }
        });
      }
    }
  });

  // --- serial writer ---------------------------------------------------------
  if (cfg.keep_recon) result.recon.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    output.await(i);
    const auto* payload = output.payload(i);
    result.bitstream.insert(result.bitstream.end(), payload->begin(),
                            payload->end());
    if (cfg.keep_recon) result.recon[i] = jobs[i]->recon_ref()->recon;
    jobs[i].reset();
  }

  source.join();
  lookahead.join();
  submitter.join();
  pool.wait_idle();

  result.stats.frames = n;
  result.stats.bits = costs.bits.unsafe_get();
  result.stats.sad = costs.sad.unsafe_get();
  result.stats.sse = costs.sse.unsafe_get();
  result.stats.psnr = psnr_from_sse(
      result.stats.sse,
      n * static_cast<std::uint64_t>(cfg.width) * cfg.height);
  result.stats.seconds = sw.seconds();
  return result;
}

}  // namespace

EncodeResult encode(const EncoderConfig& cfg) {
  std::vector<Frame> frames(static_cast<std::size_t>(cfg.frames));
  for (int i = 0; i < cfg.frames; ++i) {
    frames[static_cast<std::size_t>(i)].number = i;
    frames[static_cast<std::size_t>(i)].luma =
        synth_frame(cfg.width, cfg.height, i, cfg.seed);
    frames[static_cast<std::size_t>(i)].intra_only =
        cfg.gop <= 1 || i % cfg.gop == 0;
    frames[static_cast<std::size_t>(i)].qp = cfg.qp;
  }
  return run_encode(std::move(frames), cfg);
}

EncodeResult encode_planes(const std::vector<Plane>& planes,
                           const EncoderConfig& cfg) {
  std::vector<Frame> frames(planes.size());
  for (std::size_t i = 0; i < planes.size(); ++i) {
    frames[i].number = static_cast<int>(i);
    frames[i].luma = planes[i];
    frames[i].intra_only = cfg.gop <= 1 || i % static_cast<std::size_t>(cfg.gop) == 0;
    frames[i].qp = cfg.qp;
  }
  return run_encode(std::move(frames), cfg);
}

}  // namespace tle::videnc
