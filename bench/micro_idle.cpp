// Microbenchmark for adaptive worker parking (elastic idling).
//
// Two phases, each run for every scheduler kind with parking enabled and
// disabled (pool_config::parking, so one process measures both):
//
//   idle-CPU   worker 0 runs a ~200ms *sequential* spin inside run() at
//              P=8 while the other 7 workers have nothing to do. The CPU
//              time those workers burn is
//                  (process CPU delta) - (worker 0's thread CPU delta);
//              with parking they should sleep, without it they spin. This
//              is the paper's Section 1.1 regime in miniature: on a shared
//              or oversubscribed machine, spinning thieves tax the one
//              thread doing real work.
//
//   wake       after a ~5ms sequential quiesce (long enough for every
//              idle worker to park), a burst — a pardo tree of 64 leaves,
//              ~50us of work each — measures how quickly parked workers
//              come back: the makespan includes wake latency. Reported as
//              the median of kBurstReps bursts.
//
// Output: a human table plus, when LCWS_BENCH_JSON is set, one JSON object
// per (kind, parking) cell with the raw numbers (used to produce
// BENCH_idle.json).
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sched/dispatch.h"
#include "support/timing.h"

using namespace lcws;

namespace {

constexpr std::size_t kWorkers = 8;
constexpr double kIdlePhaseSeconds = 0.2;
constexpr double kQuiesceSeconds = 0.005;
constexpr int kBurstReps = 21;
constexpr int kBurstDepth = 6;  // 2^6 = 64 leaves
constexpr std::uint64_t kLeafSpinNs = 50 * 1000;

double cpu_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Busy work that the optimizer cannot elide or hoist.
void spin_for_ns(std::uint64_t ns) {
  stopwatch sw;
  volatile std::uint64_t sink = 0;
  while (sw.elapsed_ns() < ns) {
    for (int i = 0; i < 64; ++i) sink = sink + 1;
  }
}

template <typename Sched>
void burst_tree(Sched& sched, int depth) {
  if (depth == 0) {
    spin_for_ns(kLeafSpinNs);
    return;
  }
  sched.pardo([&] { burst_tree(sched, depth - 1); },
              [&] { burst_tree(sched, depth - 1); });
}

struct measurement {
  double idle_cpu_s = 0;   // CPU burned by the 7 idle workers
  double burst_med_s = 0;  // median post-quiesce burst makespan
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t idle_ns = 0;
};

measurement measure(sched_kind kind, bool parking) {
  measurement m;
  pool_config cfg = pool_config::from_env();
  cfg.parking = parking;
  with_scheduler(kind, kWorkers, cfg, [&](auto& sched) {
    sched.reset_counters();
    sched.run([&] {
      // Phase 1: idle CPU while worker 0 works alone.
      const double p0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
      const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      spin_for_ns(static_cast<std::uint64_t>(kIdlePhaseSeconds * 1e9));
      const double p1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
      const double t1 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      m.idle_cpu_s = (p1 - p0) - (t1 - t0);

      // Phase 2: wake latency after quiesce.
      std::vector<double> bursts;
      bursts.reserve(kBurstReps);
      for (int rep = 0; rep < kBurstReps; ++rep) {
        spin_for_ns(static_cast<std::uint64_t>(kQuiesceSeconds * 1e9));
        stopwatch sw;
        burst_tree(sched, kBurstDepth);
        bursts.push_back(sw.elapsed_seconds());
      }
      std::sort(bursts.begin(), bursts.end());
      m.burst_med_s = bursts[bursts.size() / 2];
    });
    const auto t = sched.profile().totals;
    m.parks = t.parks;
    m.wakes = t.wakes;
    m.idle_ns = t.idle_ns;
  });
  return m;
}

void maybe_append_json(sched_kind kind, const char* mode,
                       const measurement& m) {
  const char* path = std::getenv("LCWS_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"benchmark\":\"micro_idle\",\"scheduler\":\"%s\",\"parking\":\"%s\","
      "\"procs\":%zu,\"idle_cpu_s\":%.6f,\"burst_median_s\":%.6f,"
      "\"parks\":%llu,\"wakes\":%llu,\"idle_ns\":%llu}\n",
      to_string(kind), mode, kWorkers, m.idle_cpu_s, m.burst_med_s,
      static_cast<unsigned long long>(m.parks),
      static_cast<unsigned long long>(m.wakes),
      static_cast<unsigned long long>(m.idle_ns));
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("== micro_idle: adaptive parking (elastic idling) ==\n");
  std::printf(
      "P=%zu | idle phase %.0fms sequential spin | burst: %d leaves x "
      "%llu us after %.0fms quiesce, median of %d\n\n",
      kWorkers, kIdlePhaseSeconds * 1e3, 1 << kBurstDepth,
      static_cast<unsigned long long>(kLeafSpinNs / 1000),
      kQuiesceSeconds * 1e3, kBurstReps);
  std::printf("%-16s %-8s %12s %12s %8s %8s\n", "scheduler", "parking",
              "idle-cpu (s)", "burst (ms)", "parks", "wakes");
  for (const sched_kind kind : all_sched_kinds) {
    measurement on = measure(kind, true);
    measurement off = measure(kind, false);
    std::printf("%-16s %-8s %12.4f %12.3f %8llu %8llu\n", to_string(kind),
                "on", on.idle_cpu_s, on.burst_med_s * 1e3,
                static_cast<unsigned long long>(on.parks),
                static_cast<unsigned long long>(on.wakes));
    std::printf("%-16s %-8s %12.4f %12.3f %8llu %8llu\n", to_string(kind),
                "off", off.idle_cpu_s, off.burst_med_s * 1e3,
                static_cast<unsigned long long>(off.parks),
                static_cast<unsigned long long>(off.wakes));
    if (off.idle_cpu_s > 0) {
      std::printf("%-16s idle-cpu reduction: %.1f%%\n", "",
                  100.0 * (1.0 - on.idle_cpu_s / off.idle_cpu_s));
    }
    maybe_append_json(kind, "on", on);
    maybe_append_json(kind, "off", off);
  }
  return 0;
}
