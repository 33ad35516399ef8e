#include "pipez/pipeline.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "bzip/block_codec.hpp"
#include "sync/bounded_queue.hpp"
#include "sync/tx_condvar.hpp"
#include "tm/api.hpp"
#include "util/timing.hpp"

namespace tle::pipez {

namespace {

constexpr std::uint32_t kStreamMagic = 0x5A504950;  // "PIPZ"

// --- deferred diagnostic log (Section VI-c) --------------------------------
// Log lines produced inside critical sections are deferred to post-commit;
// ordering is reconstructible from the sequence number, as the paper notes
// for memcached/Atomic Quake logging.
std::mutex g_log_mutex;
std::vector<std::string> g_log;
std::atomic<std::uint64_t> g_log_seq{0};

void deferred_log(TxContext& tx, const char* what, std::uint64_t index) {
  const std::uint64_t seq = g_log_seq.fetch_add(1, std::memory_order_relaxed);
  tx.defer([seq, what, index] {
    char line[96];
    std::snprintf(line, sizeof line, "%llu %s block=%llu",
                  (unsigned long long)seq, what, (unsigned long long)index);
    std::lock_guard<std::mutex> g(g_log_mutex);
    g_log.emplace_back(line);
  });
}

// --- block descriptors -------------------------------------------------------

struct BlockTask {
  std::uint32_t index;
  const std::uint8_t* in;
  std::size_t in_size;
};

/// Ordered output: consumers deliver finished blocks by index; the serial
/// writer awaits them in order. Mirrors PBZip2's OutputBuffer + condvar.
class OutputCollector {
 public:
  explicit OutputCollector(std::size_t blocks)
      : n_(blocks), slots_(new tm_var<std::vector<std::uint8_t>*>[blocks]) {}

  ~OutputCollector() {
    // Normally all slots are consumed; on error paths, reap leftovers.
    // Routed delete: a straggling simulated-HTM consumer could still hold a
    // zombie reference to an undelivered slot's block.
    for (std::size_t i = 0; i < n_; ++i)
      tm_private_delete(slots_[i].unsafe_get());
  }

  /// Consumer side: publish block `idx` (ownership transfers).
  void deliver(std::size_t idx, std::vector<std::uint8_t>* data) {
    critical(m_, TLE_TX_SITE("pipez/deliver"), [&](TxContext& tx) {
      tx.no_quiesce();  // publishing, not privatizing
      tx.write(slots_[idx], data);
      ready_.notify_all(tx);
    });
  }

  /// Writer side: block until `idx` is ready, then take it (privatization).
  std::vector<std::uint8_t>* await(std::size_t idx) {
    for (;;) {
      std::vector<std::uint8_t>* p = nullptr;
      critical(m_, TLE_TX_SITE("pipez/await"), [&](TxContext& tx) {
        p = tx.read(slots_[idx]);
        if (p) {
          tx.write(slots_[idx], static_cast<std::vector<std::uint8_t>*>(nullptr));
          // Privatizing: quiescence must run, so no TM_NoQuiesce here.
        } else {
          tx.no_quiesce();
          ready_.wait(tx);
        }
      });
      if (p) return p;
    }
  }

 private:
  std::size_t n_;
  std::unique_ptr<tm_var<std::vector<std::uint8_t>*>[]> slots_;
  elidable_mutex m_;
  tx_condvar ready_;
};

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

bool get_u32(const std::uint8_t* d, std::size_t n, std::size_t* pos,
             std::uint32_t* v) {
  if (*pos + 4 > n) return false;
  std::memcpy(v, d + *pos, 4);
  *pos += 4;
  return true;
}

}  // namespace

std::vector<std::uint8_t> compress(const std::vector<std::uint8_t>& input,
                                   const Config& cfg, RunStats* stats) {
  Stopwatch sw;
  const std::size_t bs = cfg.block_size ? cfg.block_size : 1;
  const std::size_t nblocks = input.empty() ? 0 : (input.size() + bs - 1) / bs;

  bounded_queue<BlockTask*> fifo(cfg.queue_capacity);
  OutputCollector collected(nblocks);

  // Consumers: compression itself runs outside any critical section.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.worker_threads));
  for (int w = 0; w < cfg.worker_threads; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto task = fifo.pop();
        if (!task.has_value()) break;
        BlockTask* t = *task;
        auto* out = new std::vector<std::uint8_t>(
            bzip::compress_block(t->in, t->in_size));
        collected.deliver(t->index, out);
        delete t;
      }
    });
  }

  // Producer: split the input into block descriptors.
  std::thread producer([&] {
    for (std::size_t i = 0; i < nblocks; ++i) {
      auto* t = new BlockTask{static_cast<std::uint32_t>(i),
                              input.data() + i * bs,
                              std::min(bs, input.size() - i * bs)};
      if (cfg.verbose_log) {
        // Route the log through a tiny critical section to exercise §VI-c.
        static elidable_mutex log_mutex;
        critical(log_mutex, TLE_TX_SITE("pipez/log"), [&](TxContext& tx) {
          tx.no_quiesce();
          deferred_log(tx, "produce", i);
        });
      }
      fifo.push(t);
    }
    fifo.close();
  });

  // Serial writer (this thread): assemble in order.
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 64);
  put_u32(&out, kStreamMagic);
  put_u32(&out, static_cast<std::uint32_t>(nblocks));
  put_u32(&out, static_cast<std::uint32_t>(bs));
  put_u32(&out, static_cast<std::uint32_t>(input.size()));
  for (std::size_t i = 0; i < nblocks; ++i) {
    std::vector<std::uint8_t>* blk = collected.await(i);
    put_u32(&out, static_cast<std::uint32_t>(blk->size()));
    out.insert(out.end(), blk->begin(), blk->end());
    // Writer-side privatization: await() detached the block from the shared
    // slot, but a consumer elided under simulated HTM may still be mid-read.
    tm_private_delete(blk);
  }

  producer.join();
  for (auto& w : workers) w.join();

  if (stats) {
    stats->blocks = nblocks;
    stats->in_bytes = input.size();
    stats->out_bytes = out.size();
    stats->seconds = sw.seconds();
  }
  return out;
}

DecompressResult decompress(const std::vector<std::uint8_t>& stream,
                            const Config& cfg, RunStats* stats) {
  Stopwatch sw;
  DecompressResult res;
  std::size_t pos = 0;
  std::uint32_t magic = 0, nblocks = 0, bs = 0, orig = 0;
  if (!get_u32(stream.data(), stream.size(), &pos, &magic) ||
      magic != kStreamMagic) {
    res.error = "bad stream magic";
    return res;
  }
  if (!get_u32(stream.data(), stream.size(), &pos, &nblocks) ||
      !get_u32(stream.data(), stream.size(), &pos, &bs) ||
      !get_u32(stream.data(), stream.size(), &pos, &orig)) {
    res.error = "truncated stream header";
    return res;
  }

  // Scan block frames serially (cheap), building descriptors.
  std::vector<BlockTask> tasks(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    std::uint32_t len = 0;
    if (!get_u32(stream.data(), stream.size(), &pos, &len) ||
        pos + len > stream.size()) {
      res.error = "truncated block frame";
      return res;
    }
    tasks[i] = BlockTask{i, stream.data() + pos, len};
    pos += len;
  }

  bounded_queue<BlockTask*> fifo(cfg.queue_capacity);
  OutputCollector collected(nblocks);
  std::atomic<bool> failed{false};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.worker_threads));
  for (int w = 0; w < cfg.worker_threads; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto task = fifo.pop();
        if (!task.has_value()) break;
        BlockTask* t = *task;
        bzip::DecodeResult d = bzip::decompress_block(t->in, t->in_size);
        if (!d.ok) failed.store(true, std::memory_order_relaxed);
        // Deliver even on failure (empty) so the writer can't deadlock.
        collected.deliver(t->index,
                          new std::vector<std::uint8_t>(std::move(d.data)));
      }
    });
  }

  std::thread producer([&] {
    // Push every descriptor even after a failure: workers deliver an empty
    // block for failed decodes, so the writer always receives all slots and
    // can never deadlock on a missing index.
    for (auto& t : tasks) fifo.push(&t);
    fifo.close();
  });

  res.data.reserve(orig);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    std::vector<std::uint8_t>* blk = collected.await(i);
    res.data.insert(res.data.end(), blk->begin(), blk->end());
    tm_private_delete(blk);  // same writer-side privatization as compress()
  }
  producer.join();
  for (auto& w : workers) w.join();

  if (failed.load()) {
    res.error = "block decode failed (corrupt stream)";
    res.data.clear();
    return res;
  }
  if (res.data.size() != orig) {
    res.error = "reassembled size mismatch";
    res.data.clear();
    return res;
  }
  res.ok = true;
  if (stats) {
    stats->blocks = nblocks;
    stats->in_bytes = stream.size();
    stats->out_bytes = res.data.size();
    stats->seconds = sw.seconds();
  }
  return res;
}

std::vector<std::string> drain_log() {
  std::lock_guard<std::mutex> g(g_log_mutex);
  std::vector<std::string> out;
  out.swap(g_log);
  return out;
}

}  // namespace tle::pipez
