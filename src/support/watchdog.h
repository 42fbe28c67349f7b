// Stall watchdog: turns scheduler hangs into diagnosable reports.
//
// A fork-join runtime that deadlocks — a lost wakeup, a dropped exposure
// signal whose victim never re-exposes, a join spinning on a task nobody
// will ever run — presents as a silent hang: every worker parked or
// spinning, zero CPU signal, nothing on stderr. This monitor converts that
// into a hard failure with a state dump.
//
// The monitor thread samples a caller-supplied progress token (the
// scheduler sums its tasks-executed/push/pop/steal counters) once per
// deadline while *armed* (the scheduler arms around each run()). If the
// token is unchanged across a full deadline, it calls the dump callback
// (per-worker deque indices, parked/targeted flags, counter snapshot) and
// hands the report to the stall handler — by default: print and abort.
//
// Caveat, by design: the token only moves when the scheduler schedules, so
// a single sequential task that legitimately runs longer than the deadline
// is indistinguishable from a hang. The watchdog is therefore opt-in
// (LCWS_WATCHDOG_MS, unset by default) and the deadline should exceed the
// longest expected task. Detection latency is between one and two
// deadlines (the first sample after arming establishes the baseline).
//
// The monitor reads only relaxed atomics through its callbacks, so it
// perturbs none of the paper's fence/CAS/steal counters and is
// TSan-clean.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "stats/trace.h"

namespace lcws {

class watchdog {
 public:
  using progress_fn = std::function<std::uint64_t()>;
  using dump_fn = std::function<std::string()>;
  using stall_fn = std::function<void(const std::string&)>;
  using cancel_fn = std::function<void(const std::string&)>;

  // `progress` must be monotone while work is happening; `dump` renders the
  // state report; `on_stall` receives it (default: stderr + abort; tests
  // substitute a recorder). Callbacks run on the monitor thread.
  //
  // `cancel` (optional) arms the §11 escalation ladder: the *first* frozen
  // window dumps and calls `cancel` (the scheduler cancels the active run
  // cooperatively — pardo boundaries throw, the tree collapses, run()
  // returns); only a *second* consecutive frozen window — the cancel
  // itself produced no progress, so the hang is not cooperative-cancelable
  // — falls through to `on_stall` (default: abort). Without `cancel` the
  // ladder degenerates to the legacy dump-and-abort on the first stall.
  watchdog(std::chrono::milliseconds deadline, progress_fn progress,
           dump_fn dump, stall_fn on_stall = {}, cancel_fn cancel = {})
      : deadline_(deadline),
        progress_(std::move(progress)),
        dump_(std::move(dump)),
        on_stall_(on_stall ? std::move(on_stall) : default_stall),
        cancel_(std::move(cancel)),
        monitor_([this] { monitor_loop(); }) {}

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  ~watchdog() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
  }

  // Start watching (a computation is beginning). Resets the baseline so a
  // stalled *previous* run cannot bleed a stale token into this one.
  void arm() {
    {
      std::lock_guard<std::mutex> lock(m_);
      armed_ = true;
      rebaseline_ = true;
    }
    cv_.notify_all();
  }

  // Stop watching (the computation finished; idleness is now legitimate).
  void disarm() {
    std::lock_guard<std::mutex> lock(m_);
    armed_ = false;
  }

  std::chrono::milliseconds deadline() const noexcept { return deadline_; }

  // Number of stalls reported so far (only observable when the stall
  // handler returns, i.e. under a test handler).
  std::uint64_t stalls_reported() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

  // Number of cancel-rung escalations issued (first frozen window with a
  // cancel_fn attached).
  std::uint64_t cancels_issued() const noexcept {
    return cancels_.load(std::memory_order_relaxed);
  }

 private:
  static void default_stall(const std::string& report) {
    // Serialize against concurrent LCWS_DUMP_ON_EXIT / other pools'
    // watchdogs so the report (which now carries per-worker trace tails)
    // lands on stderr as one contiguous block.
    std::lock_guard<std::mutex> lock(trace::dump_mutex());
    std::fprintf(stderr,
                 "lcws: watchdog: no scheduler progress for a full "
                 "deadline; worker state follows\n%s",
                 report.c_str());
    std::fflush(stderr);
    std::abort();
  }

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(m_);
    std::uint64_t baseline = 0;
    bool have_baseline = false;
    // Escalation rung for the current stall episode: 0 = none, 1 = the
    // cancel rung fired. Any progress resets it — a later, distinct stall
    // gets a fresh cancel attempt before the abort rung.
    int rung = 0;
    while (!stop_) {
      cv_.wait_for(lock, deadline_, [this] { return stop_ || rebaseline_; });
      if (stop_) break;
      if (rebaseline_) {
        rebaseline_ = false;
        have_baseline = false;
        rung = 0;
      }
      if (!armed_) {
        have_baseline = false;
        rung = 0;
        continue;
      }
      lock.unlock();
      const std::uint64_t token = progress_();
      lock.lock();
      if (stop_) break;
      if (!armed_ || rebaseline_) continue;  // disarmed/re-armed mid-sample
      if (have_baseline && token == baseline) {
        if (cancel_ && rung == 0) {
          // First rung: dump + cooperative cancel. If cancellation bites,
          // the collapsing tree moves the token and the next sample
          // resets the ladder; if not, the next frozen window aborts.
          rung = 1;
          lock.unlock();
          const std::string report = dump_();
          cancels_.fetch_add(1, std::memory_order_relaxed);
          cancel_(report);
          lock.lock();
        } else {
          lock.unlock();
          const std::string report = dump_();
          stalls_.fetch_add(1, std::memory_order_relaxed);
          on_stall_(report);  // default never returns
          lock.lock();
          have_baseline = false;  // test handlers return: fresh window
          rung = 0;
        }
      } else {
        baseline = token;
        have_baseline = true;
        rung = 0;
      }
    }
  }

  const std::chrono::milliseconds deadline_;
  const progress_fn progress_;
  const dump_fn dump_;
  const stall_fn on_stall_;
  const cancel_fn cancel_;

  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool armed_ = false;
  bool rebaseline_ = false;
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> cancels_{0};
  std::thread monitor_;  // last: starts after every field it reads
};

}  // namespace lcws
