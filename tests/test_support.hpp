// Shared helpers for the test suites.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "tm/tm.hpp"

namespace tle::testing {

/// RAII mode switch: sets the paper-style ExecMode and restores the previous
/// configuration on scope exit. Must not be used while transactions run.
class ModeGuard {
 public:
  explicit ModeGuard(ExecMode m) : saved_(config()) { set_exec_mode(m); }
  ModeGuard(ExecMode m, QuiescePolicy q, bool honor_noq) : saved_(config()) {
    set_exec_mode(m);
    config().quiesce = q;
    config().honor_noquiesce = honor_noq;
  }
  ~ModeGuard() { config() = saved_; }

  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  RuntimeConfig saved_;
};

/// Run `fn(thread_index)` on `n` threads and join them all.
inline void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

/// Spin until a plain flag flips (safe inside transactions: plain atomic
/// reads of non-tm state do not touch TM metadata).
inline void await_flag(const std::atomic<bool>& f) {
  while (!f.load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Every execution mode the paper evaluates.
inline const ExecMode kAllModes[] = {
    ExecMode::Lock, ExecMode::StmSpin, ExecMode::StmCondVar,
    ExecMode::StmCondVarNoQ, ExecMode::Htm};

/// The speculative (elided) modes only.
inline const ExecMode kElisionModes[] = {
    ExecMode::StmSpin, ExecMode::StmCondVar, ExecMode::StmCondVarNoQ,
    ExecMode::Htm};

}  // namespace tle::testing
