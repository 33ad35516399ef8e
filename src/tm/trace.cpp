#include "tm/trace.hpp"

#include <algorithm>
#include <atomic>

#include "tm/obs/site.hpp"
#include "tm/registry.hpp"
#include "util/timing.hpp"

namespace tle::trace {

namespace {

// One ring cell: the record packed into four atomic words plus a sequence
// counter. The seqlock makes concurrent snapshot()s safe without slowing
// the owner: the writer's stores are all relaxed atomics bracketed by an
// odd/even seq transition; a reader whose two seq loads disagree (or see an
// odd value) discards the cell. Everything is an atomic access, so a racing
// overwrite is a discarded read, not UB or a TSan report.
struct Cell {
  std::atomic<std::uint32_t> seq{0};  // odd = write in progress
  std::atomic<std::uint64_t> w0{0};   // ts_ns
  std::atomic<std::uint64_t> w1{0};   // dur_ns
  std::atomic<std::uint64_t> w2{0};   // slot | site<<16 | retry<<32 |
                                      //   event<<48 | cause<<56
  std::atomic<std::uint64_t> w3{0};   // rset | wset<<32
};

struct Ring {
  Cell cells[kRingSize];
  std::atomic<std::uint64_t> next{0};   // total emitted (head = next % size)
  std::atomic<std::uint64_t> floor{0};  // records below this are retired
};

Ring g_rings[kMaxThreads];

std::uint64_t pack_meta(std::uint16_t slot, std::uint16_t site,
                        std::uint16_t retry, Event e,
                        AbortCause cause) noexcept {
  return std::uint64_t{slot} | std::uint64_t{site} << 16 |
         std::uint64_t{retry} << 32 |
         std::uint64_t{static_cast<std::uint8_t>(e)} << 48 |
         std::uint64_t{static_cast<std::uint8_t>(cause)} << 56;
}

}  // namespace

const char* to_string(Event e) noexcept {
  switch (e) {
    case Event::Begin: return "begin";
    case Event::Commit: return "commit";
    case Event::Abort: return "abort";
    case Event::SerialEnter: return "serial-enter";
    case Event::SerialExit: return "serial-exit";
    case Event::Quiesce: return "quiesce";
    case Event::WatchdogEscalate: return "watchdog-escalate";
    case Event::StripeRevalidate: return "stripe-revalidate";
  }
  return "?";
}

void enable(bool on) noexcept { obs::set_flag(obs::kTraceBit, on); }

bool enabled() noexcept { return obs::flags() & obs::kTraceBit; }

void emit(Event e, AbortCause cause, std::uint16_t site, std::uint16_t retry,
          std::uint32_t rset, std::uint32_t wset,
          std::uint64_t dur_ns) noexcept {
  const int slot = my_slot_id();
  Ring& ring = g_rings[slot];
  const std::uint64_t i = ring.next.load(std::memory_order_relaxed);
  Cell& c = ring.cells[i % kRingSize];
  const std::uint32_t s = c.seq.load(std::memory_order_relaxed);
  // Mark the cell unstable before touching the payload: a reader that
  // observes any new word is guaranteed (release fence -> its acquire
  // fence) to also observe seq != its first read, and discards the cell.
  c.seq.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  c.w0.store(now_ns(), std::memory_order_relaxed);
  c.w1.store(dur_ns, std::memory_order_relaxed);
  c.w2.store(pack_meta(static_cast<std::uint16_t>(slot), site, retry, e, cause),
             std::memory_order_relaxed);
  c.w3.store(std::uint64_t{rset} | std::uint64_t{wset} << 32,
             std::memory_order_relaxed);
  c.seq.store(s + 2, std::memory_order_release);
  ring.next.store(i + 1, std::memory_order_release);
}

std::vector<Record> snapshot() {
  std::vector<Record> out;
  for (int s = 0; s < slot_high_water(); ++s) {
    Ring& ring = g_rings[s];
    const std::uint64_t total = ring.next.load(std::memory_order_acquire);
    const std::uint64_t floor = ring.floor.load(std::memory_order_acquire);
    std::uint64_t begin = total > kRingSize ? total - kRingSize : 0;
    if (begin < floor) begin = floor;
    for (std::uint64_t k = begin; k < total; ++k) {
      Cell& c = ring.cells[k % kRingSize];
      const std::uint32_t s1 = c.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;  // overwrite in progress right now
      Record r;
      r.ts_ns = c.w0.load(std::memory_order_relaxed);
      r.dur_ns = c.w1.load(std::memory_order_relaxed);
      const std::uint64_t meta = c.w2.load(std::memory_order_relaxed);
      const std::uint64_t sets = c.w3.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (c.seq.load(std::memory_order_relaxed) != s1)
        continue;  // lapped while copying; the newer value will be seen
                   // under its own index (>= total), so just drop this one
      r.rset = static_cast<std::uint32_t>(sets);
      r.wset = static_cast<std::uint32_t>(sets >> 32);
      r.slot = static_cast<std::uint16_t>(meta);
      r.site = static_cast<std::uint16_t>(meta >> 16);
      r.retry = static_cast<std::uint16_t>(meta >> 32);
      r.event = static_cast<Event>(static_cast<std::uint8_t>(meta >> 48));
      r.cause = static_cast<AbortCause>(static_cast<std::uint8_t>(meta >> 56));
      out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

void reset() noexcept {
  // Retire everything emitted so far by advancing the floor; rewinding
  // `next` would race live emitters (and resurrect stale cells).
  for (auto& ring : g_rings)
    ring.floor.store(ring.next.load(std::memory_order_acquire),
                     std::memory_order_release);
}

}  // namespace tle::trace
