// Graceful-degradation harness (DESIGN.md §6).
//
// Sweeps the Signal-family schedulers over a grid of forced signal-send
// failure rates (via the deterministic fault injector — this binary links
// the LCWS_FAULT_INJECTION library copy) and co-run load (spinner threads
// competing for the CPUs, the paper's §1.1 multiprogramming regime). Each
// cell runs a fork-join tree workload with CPU-burning leaves and reports:
//
//   makespan      median wall time of kReps runs
//   degrades /    health-monitor state transitions observed
//   recovers      (recovery is measured in a follow-up clean phase)
//   fallback      exposure requests routed through the user-space flag
//   sent/failed   signal delivery outcomes
//
// The interesting comparison is failure-rate > 0 with degradation ON:
// instead of burning every exposure request on a doomed pthread_kill +
// retry backoff, the pool converges to USLCWS-style user-space exposure
// and keeps flowing; once the fault is lifted, probes restore the signal
// path (recovers > 0 in the "recovery" column).
//
// Output: a human table plus, when LCWS_BENCH_JSON is set, one JSON
// object per cell (used to produce BENCH_degraded.json).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sched/dispatch.h"
#include "support/fault_injection.h"
#include "support/timing.h"

using namespace lcws;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr int kReps = 5;
constexpr unsigned kTreeDepth = 9;      // 512 leaves x ~20us burn per run
constexpr std::uint64_t kTreeAnswer = 512;
constexpr int kCorunSpinners = 4;

const sched_kind kSignalFamily[] = {sched_kind::signal,
                                    sched_kind::conservative,
                                    sched_kind::expose_half};
const unsigned kFailPermille[] = {0, 500, 1000};

// Balanced fork tree whose leaves burn real CPU, so one run spans many OS
// scheduling quanta. A fib kernel with a sequential cutoff is over in a
// few microseconds — inside a single quantum the owner is never
// descheduled while holding private work, no exposure request is ever
// issued, and every degradation counter would read zero.
template <typename Sched>
std::uint64_t burn_tree(Sched& sched, unsigned depth) {
  if (depth == 0) {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 20000; ++i) sink = sink + 1;
    return 1;
  }
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = burn_tree(sched, depth - 1); },
              [&] { right = burn_tree(sched, depth - 1); });
  return left + right;
}

// Pure CPU burn competing with the pool: the co-run load.
class corun_load {
 public:
  explicit corun_load(int threads) {
    for (int i = 0; i < threads; ++i) {
      spinners_.emplace_back([this] {
        volatile std::uint64_t sink = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
          for (int j = 0; j < 4096; ++j) sink = sink + 1;
        }
      });
    }
  }
  ~corun_load() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : spinners_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

struct cell {
  double makespan_med_s = 0;
  double recovery_s = 0;  // one clean run after lifting the fault
  std::uint64_t degrades = 0;
  std::uint64_t recovers = 0;
  std::uint64_t fallback = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
};

cell measure(sched_kind kind, unsigned fail_permille, bool corun) {
  cell c;
  std::unique_ptr<corun_load> load;
  if (corun) load = std::make_unique<corun_load>(kCorunSpinners);
  with_scheduler(kind, kWorkers, [&](auto& sched) {
    sched.reset_counters();
    if (fail_permille > 0) {
      fi::configure(0x5eedull * (fail_permille + 1), fail_permille,
                    fi::site_bit(fi::site::signal_send));
    }
    std::vector<double> times;
    times.reserve(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      stopwatch sw;
      const std::uint64_t f = sched.run([&] { return burn_tree(sched, kTreeDepth); });
      times.push_back(sw.elapsed_seconds());
      if (f != kTreeAnswer) {
        std::fprintf(stderr, "WRONG RESULT %llu\n",
                     static_cast<unsigned long long>(f));
        std::exit(1);
      }
    }
    std::sort(times.begin(), times.end());
    c.makespan_med_s = times[times.size() / 2];
    // Lift the fault and measure one clean run: probes should restore the
    // signal path (recovers moves) without hurting the makespan.
    fi::disable();
    stopwatch sw;
    const std::uint64_t f = sched.run([&] { return burn_tree(sched, kTreeDepth); });
    c.recovery_s = sw.elapsed_seconds();
    if (f != kTreeAnswer) std::exit(1);
    const auto t = sched.profile().totals;
    c.degrades = t.degrade_events;
    c.recovers = t.recover_events;
    c.fallback = t.fallback_exposures;
    c.sent = t.signals_sent;
    c.failed = t.signals_failed;
    c.requests = t.exposure_requests;
  });
  fi::disable();
  return c;
}

void maybe_append_json(sched_kind kind, unsigned fail_permille, bool corun,
                       const cell& c) {
  const char* path = std::getenv("LCWS_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"benchmark\":\"degraded_mode\",\"scheduler\":\"%s\","
      "\"procs\":%zu,\"fail_permille\":%u,\"corun\":%d,"
      "\"makespan_median_s\":%.6f,\"recovery_run_s\":%.6f,"
      "\"degrade_events\":%llu,\"recover_events\":%llu,"
      "\"fallback_exposures\":%llu,\"signals_sent\":%llu,"
      "\"signals_failed\":%llu,\"exposure_requests\":%llu}\n",
      to_string(kind), kWorkers, fail_permille, corun ? 1 : 0,
      c.makespan_med_s, c.recovery_s,
      static_cast<unsigned long long>(c.degrades),
      static_cast<unsigned long long>(c.recovers),
      static_cast<unsigned long long>(c.fallback),
      static_cast<unsigned long long>(c.sent),
      static_cast<unsigned long long>(c.failed),
      static_cast<unsigned long long>(c.requests));
  std::fclose(f);
}

}  // namespace

int main() {
  if (!fi::compiled_in()) {
    std::fprintf(stderr,
                 "degraded_mode must link the LCWS_FAULT_INJECTION build\n");
    return 1;
  }
  std::printf("== degraded_mode: Signal->user-space fallback under fire ==\n");
  std::printf(
      "P=%zu | burn_tree(%u) x%d per cell | co-run: %d spinner threads | "
      "degradation %s\n\n",
      kWorkers, kTreeDepth, kReps, kCorunSpinners,
      std::getenv("LCWS_DEGRADE_OFF") != nullptr ? "OFF" : "on");
  std::printf("%-14s %6s %6s %12s %12s %9s %9s %9s %8s %8s\n", "scheduler",
              "fail", "corun", "makespan(ms)", "recover(ms)", "degrades",
              "recovers", "fallback", "sent", "failed");
  for (const sched_kind kind : kSignalFamily) {
    for (const unsigned rate : kFailPermille) {
      for (const bool corun : {false, true}) {
        const cell c = measure(kind, rate, corun);
        std::printf("%-14s %6u %6d %12.3f %12.3f %9llu %9llu %9llu %8llu "
                    "%8llu\n",
                    to_string(kind), rate, corun ? 1 : 0,
                    c.makespan_med_s * 1e3, c.recovery_s * 1e3,
                    static_cast<unsigned long long>(c.degrades),
                    static_cast<unsigned long long>(c.recovers),
                    static_cast<unsigned long long>(c.fallback),
                    static_cast<unsigned long long>(c.sent),
                    static_cast<unsigned long long>(c.failed));
        maybe_append_json(kind, rate, corun, c);
      }
    }
  }
  return 0;
}
