// set-read and set-update: the Figure-5 data-structure workloads. Three
// persistent client threads each issue a fixed number of set calls per round,
// back to back (closed loop), over a seeded key stream. Every 8th call is
// timed from the client's side of the call.
//
// Correctness: each client counts its successful inserts and removes per key.
// After a round the expected membership is the previous one plus that replay;
// it must be 0 or 1 per key and match contains(). A red-black tree also has
// its structural invariants checked.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <thread>

#include "dstruct/tm_hash_set.hpp"
#include "dstruct/tm_rbtree_set.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr unsigned kSampleMask = 7;  // time 1 call in 8

enum OpKind : std::uint8_t { kContains, kInsert, kRemove, kKinds };
const char* const kKindNames[kKinds] = {"contains", "insert", "remove"};

struct Params {
  long keys;
  int contains_pct;
  int insert_pct;  // the rest of the mix removes
  long calls_per_client;
  int warmup_rounds;  // about half a second of the same load
};

/// Reusable meeting point of a fixed number of threads. A mutex and a
/// condition variable, not std::barrier: the round loop crosses it twice per
/// round, and its waits should not share libstdc++'s atomic-wait pool with
/// the runtime's own parking on epoch and grace words.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

template <typename Set>
class SetWorkload final : public Workload {
 public:
  SetWorkload(Params p, Inject inject) : p_(p), inject_(inject) {
    expected_.assign(static_cast<std::size_t>(p_.keys), 0);
    for (auto& c : clients_) {
      c.net.assign(static_cast<std::size_t>(p_.keys), 0);
      c.lat_ns.reserve(static_cast<std::size_t>(p_.calls_per_client) /
                           (kSampleMask + 1) + 1);
      c.lat_kind.reserve(c.lat_ns.capacity());
    }
    for (int i = 0; i < kClients; ++i)
      threads_.emplace_back([this, i] { client_loop(clients_[i]); });
  }

  ~SetWorkload() override {
    quit_ = true;
    start_.arrive_and_wait();
    for (auto& t : threads_) t.join();
  }

  SetWorkload(const SetWorkload&) = delete;
  SetWorkload& operator=(const SetWorkload&) = delete;

  void setup(std::uint64_t seed, Checks& checks) override {
    set_ = std::make_unique<Set>();
    // Half full: a seeded half of the key space.
    tle::Xoshiro256 rng(seed);
    std::vector<long> order(static_cast<std::size_t>(p_.keys));
    std::iota(order.begin(), order.end(), 0L);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    std::fill(expected_.begin(), expected_.end(), 0);
    for (std::size_t i = 0; i < order.size() / 2; ++i) {
      set_->insert(order[i]);
      expected_[static_cast<std::size_t>(order[i])] = 1;
    }
    for (int i = 0; i < kClients; ++i)
      clients_[i].rng.reseed(seed * 0x100000001B3ULL + static_cast<unsigned>(i) + 1);
    timed_ = false;
    for (int i = 0; i < p_.warmup_rounds; ++i) run_round(checks);  // untimed
  }

  void begin_phase(bool traced) override {
    timed_ = true;
    recording_ = !traced;
    if (!recording_) return;
    for (auto& v : kind_p50_us_) v.clear();
    for (auto& v : kind_p99_us_) v.clear();
    call_p99_us_.clear();
  }

  Round round(Checks& checks) override { return run_round(checks); }

  void layer_metrics(LayerValues& out, Checks&) override {
    for (int k = 0; k < kKinds; ++k) {
      const std::string base = std::string("dstruct.") + kKindNames[k] + "_us_";
      out[base + "p50"] = mid_mean(kind_p50_us_[k]);
      out[base + "p99"] = mid_mean(kind_p99_us_[k]);
    }
    out["dstruct.call_us_p99"] = mid_mean(call_p99_us_);
  }

 private:
  struct alignas(64) Client {
    tle::Xoshiro256 rng;
    std::vector<std::int32_t> net;  // successful inserts - removes, per key
    std::vector<std::uint32_t> lat_ns;
    std::vector<std::uint8_t> lat_kind;
  };

  void client_loop(Client& c) {
    for (;;) {
      start_.arrive_and_wait();
      if (quit_) return;
      c.lat_ns.clear();
      c.lat_kind.clear();
      Set& set = *set_;
      for (long i = 0; i < p_.calls_per_client; ++i) {
        const long key = static_cast<long>(
            c.rng.below(static_cast<std::uint64_t>(p_.keys)));
        const int dice = static_cast<int>(c.rng.below(100));
        const bool sample = (static_cast<unsigned long>(i) & kSampleMask) == 0;
        const std::uint64_t t0 = sample ? tle::now_ns() : 0;
        OpKind kind;
        if (dice < p_.contains_pct) {
          kind = kContains;
          set.contains(key);
        } else if (dice < p_.contains_pct + p_.insert_pct) {
          kind = kInsert;
          if (set.insert(key)) ++c.net[static_cast<std::size_t>(key)];
        } else {
          kind = kRemove;
          if (set.remove(key)) --c.net[static_cast<std::size_t>(key)];
        }
        if (sample) {
          c.lat_ns.push_back(static_cast<std::uint32_t>(
              std::min<std::uint64_t>(tle::now_ns() - t0, UINT32_MAX)));
          c.lat_kind.push_back(kind);
        }
      }
      done_.arrive_and_wait();
    }
  }

  Round run_round(Checks& checks) {
    Round r;
    start_.arrive_and_wait();
    const double t0 = now_s();
    done_.arrive_and_wait();
    r.wall_s = now_s() - t0;
    r.requests = r.units = static_cast<double>(kClients * p_.calls_per_client);

    std::vector<double> by_kind[kKinds];
    for (const Client& c : clients_) {
      for (std::size_t i = 0; i < c.lat_ns.size(); ++i) {
        const double us = c.lat_ns[i] / 1e3;
        r.latency_us.push_back(us);
        if (recording_) by_kind[c.lat_kind[i]].push_back(us);
      }
    }
    if (recording_) {
      std::vector<double> all = r.latency_us;
      call_p99_us_.push_back(quantile(all, 0.99));
    }
    for (int k = 0; k < kKinds; ++k) {
      if (by_kind[k].empty()) continue;
      kind_p50_us_[k].push_back(quantile(by_kind[k], 0.50));
      kind_p99_us_[k].push_back(quantile(by_kind[k], 0.99));
    }
    check_membership(checks);
    return r;
  }

  void check_membership(Checks& checks) {
    bool skip_one = inject_ == Inject::SetKey && timed_ && !injected_;
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < expected_.size(); ++k) {
      int e = expected_[k];
      for (int i = 0; i < kClients; ++i) {
        std::int32_t& n = clients_[i].net[k];
        if (skip_one && n != 0) {
          skip_one = false;
          injected_ = true;
        } else {
          e += n;
        }
        n = 0;
      }
      const bool present = set_->contains(static_cast<long>(k));
      if ((e != 0 && e != 1) || present != (e == 1)) ++bad;
      expected_[k] = present;  // resynchronize: count each fault once
    }
    if constexpr (requires(const Set& s) { s.valid_unsafe(); }) {
      if (!set_->valid_unsafe()) {
        std::fprintf(stderr, "perfbench: red-black invariants violated\n");
        ++bad;
      }
    }
    if (bad)
      std::fprintf(stderr, "perfbench: %llu keys differ from the replay\n",
                   static_cast<unsigned long long>(bad));
    checks.add(expected_.size(), bad);
  }

  const Params p_;
  const Inject inject_;
  std::unique_ptr<Set> set_;
  std::vector<int> expected_;  // membership after the last checked round
  Client clients_[kClients];
  bool timed_ = false;
  bool recording_ = false;
  bool injected_ = false;
  std::vector<double> kind_p50_us_[kKinds];
  std::vector<double> kind_p99_us_[kKinds];
  std::vector<double> call_p99_us_;  // every kind together
  bool quit_ = false;  // written before start_, read after it
  Rendezvous start_{kClients + 1};
  Rendezvous done_{kClients + 1};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

std::unique_ptr<Workload> make_set_read(Inject inject) {
  // TmRbTreeSet over 4096 keys: 90% contains, 5% insert, 5% remove.
  return std::make_unique<SetWorkload<tle::TmRbTreeSet>>(
      Params{4096, 90, 5, 100000, 8}, inject);
}

std::unique_ptr<Workload> make_set_update(Inject inject) {
  // TmHashSet over the paper's 8-bit keys: 50% insert, 50% remove.
  return std::make_unique<SetWorkload<tle::TmHashSet>>(
      Params{256, 0, 50, 100000, 4}, inject);
}

}  // namespace perfbench
