#pragma once

// Watchdog: every measured run (one series slice, or one rung of the rate
// ladder) is armed with its planned wall time. A run that overshoots it by
// kFactor (+ kGraceS) is reported on stderr with its workload, series, rung
// and the workers' TxStats so far, and its workers are asked to stop; the
// caller then counts every operation of that run as failed. A run whose
// workers do not stop within kHardS more seconds (one transaction that never
// returns) ends the process with exit code 3 and no result.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "core/stats.h"
#include "core/timeseries.h"

namespace perfbench {

class Watchdog {
 public:
  static constexpr double kFactor = 4.0;
  static constexpr double kGraceS = 2.0;
  static constexpr double kHardS = 15.0;
  static constexpr unsigned kMaxWorkers = 8;

  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::string what, double planned_s) {
    std::lock_guard<std::mutex> lk(mu_);
    what_ = std::move(what);
    planned_s_ = planned_s;
    start_ = Clock::now();
    armed_ = true;
    tripped_ = false;
    stop_.store(false, std::memory_order_relaxed);
  }

  /// Ends the watch; true when the run overshot and was stopped.
  bool disarm() {
    std::lock_guard<std::mutex> lk(mu_);
    armed_ = false;
    return tripped_;
  }

  /// A worker publishes its live counters (null when it finishes, before
  /// they are destroyed).
  void watch(unsigned tid, const rhtm::TxStats* stats) {
    std::lock_guard<std::mutex> lk(mu_);
    if (tid < kMaxWorkers) sources_[tid] = stats;
  }

  [[nodiscard]] bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!quit_) {
      cv_.wait_for(lk, std::chrono::milliseconds(20));
      if (!armed_) continue;
      const double el = std::chrono::duration<double>(Clock::now() - start_).count();
      const double limit = kFactor * planned_s_ + kGraceS;
      if (!tripped_ && el > limit) {
        tripped_ = true;
        stop_.store(true, std::memory_order_relaxed);
        report(el);
      }
      if (tripped_ && el > limit + kHardS) {
        std::fprintf(stderr, "watchdog: %s did not stop %.0f s after the stop request; exiting\n",
                     what_.c_str(), kHardS);
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  void report(double elapsed) const {
    std::fprintf(stderr, "watchdog: %s overran: %.2f s elapsed, %.2f s planned\n", what_.c_str(),
                 elapsed, planned_s_);
    for (unsigned t = 0; t < kMaxWorkers; ++t) {
      if (sources_[t] == nullptr) continue;
      const rhtm::TxStats s = rhtm::timeseries::detail_ts::racy_snapshot(sources_[t]);
      std::fprintf(stderr, "  worker %u: commits=%llu aborts=%llu", t,
                   static_cast<unsigned long long>(s.commits),
                   static_cast<unsigned long long>(s.aborts));
      for (std::size_t p = 0; p < static_cast<std::size_t>(rhtm::ExecPath::kCount); ++p) {
        if (s.attempts_by_path[p] != 0) {
          std::fprintf(stderr, " attempts.%s=%llu", rhtm::to_string(static_cast<rhtm::ExecPath>(p)),
                       static_cast<unsigned long long>(s.attempts_by_path[p]));
        }
      }
      for (std::size_t c = 0; c < static_cast<std::size_t>(rhtm::AbortCause::kCount); ++c) {
        if (s.aborts_by_cause[c] != 0) {
          std::fprintf(stderr, " aborts.%s=%llu",
                       rhtm::to_string(static_cast<rhtm::AbortCause>(c)),
                       static_cast<unsigned long long>(s.aborts_by_cause[c]));
        }
      }
      std::fprintf(stderr, "\n");
    }
    std::fflush(stderr);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool quit_ = false;
  bool armed_ = false;
  bool tripped_ = false;
  std::string what_;
  double planned_s_ = 0;
  Clock::time_point start_;
  std::array<const rhtm::TxStats*, kMaxWorkers> sources_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it reads exists
};

}  // namespace perfbench
