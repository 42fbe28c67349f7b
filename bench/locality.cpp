// Microbenchmark for locality-aware victim selection (DESIGN.md §7).
//
// Two cache-heavy kernels from the parallel toolkit, each run for every
// scheduler kind with locality-aware stealing enabled and disabled
// (pool_config::locality, so one process measures both):
//
//   sample_sort  oversampled bucket sort of 64-bit keys. Bucket scatter is
//                bandwidth-bound; a thief that steals from an LLC-sharing
//                victim reuses lines the victim just wrote.
//
//   histogram    private per-worker counts merged by a parallel reduction.
//                Steal placement decides whether merge traffic crosses the
//                socket interconnect.
//
// Both kernels report wall seconds plus the steal-placement counters:
// steals_near / steals_remote (near = SMT, core, or LLC tier) and the
// near fraction. A wsmult "steal" whose claim exchange lost is counted in
// steals but never classified, so for wsmult near + remote can fall short
// of steals. On hosts whose topology collapses to one tier — one socket,
// no SMT, or a 1-CPU container — "near" and "remote" merge and the near
// fraction is reported but not meaningful. The counter identities are
// tier-1 tests (tests/topology_test.cpp, SchedulerLocality.*).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "parallel/histogram.h"
#include "parallel/sample_sort.h"
#include "sched/dispatch.h"
#include "support/rng.h"
#include "support/timing.h"
#include "support/topology.h"

using namespace lcws;

namespace {

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kSortBase = 200 * 1000;
constexpr std::size_t kHistBase = 400 * 1000;
constexpr std::size_t kHistBuckets = 256;

struct measurement {
  double seconds = 0;  // median of the timed rounds
  std::uint64_t steals = 0;
  std::uint64_t steals_near = 0;
  std::uint64_t steals_remote = 0;
  double near_fraction = 0;
};

// Runs `kernel(sched)` once as warmup and `rounds` timed repetitions,
// keeping the median time and the counters summed over the timed rounds.
template <typename Kernel>
measurement measure(sched_kind kind, bool locality, int rounds,
                    Kernel&& kernel) {
  measurement m;
  pool_config cfg = pool_config::from_env();
  cfg.locality = locality;
  with_scheduler(kind, kWorkers, cfg, [&](auto& sched) {
    sched.run([&] { kernel(sched); });  // warmup
    sched.reset_counters();
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      stopwatch sw;
      sched.run([&] { kernel(sched); });
      times.push_back(sw.elapsed_seconds());
    }
    std::sort(times.begin(), times.end());
    m.seconds = times[times.size() / 2];
    const auto t = sched.profile().totals;
    m.steals = t.steals;
    m.steals_near = t.steals_near;
    m.steals_remote = t.steals_remote;
    m.near_fraction = sched.profile().near_steal_fraction();
  });
  return m;
}

void print_row(const char* kernel, sched_kind kind, const char* mode,
               const measurement& m) {
  std::printf("%-12s %-16s %-4s %12.3f %10llu %10llu %10llu %8.3f\n", kernel,
              to_string(kind), mode, m.seconds * 1e3,
              static_cast<unsigned long long>(m.steals),
              static_cast<unsigned long long>(m.steals_near),
              static_cast<unsigned long long>(m.steals_remote),
              m.near_fraction);
}

template <typename Kernel>
void run_kernel(const char* name, int rounds, Kernel&& kernel) {
  for (const sched_kind kind : all_sched_kinds) {
    const measurement on = measure(kind, true, rounds, kernel);
    const measurement off = measure(kind, false, rounds, kernel);
    print_row(name, kind, "on", on);
    print_row(name, kind, "off", off);
  }
}

// base x scale, at least 1000. As in pbbs::default_size(), a product too
// large for std::size_t is refused rather than cast.
std::size_t scaled_size(std::size_t base, double scale) {
  const double n = static_cast<double>(base) * scale;
  if (!(n < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument("LCWS_BENCH_SCALE out of range");
  }
  return std::max<std::size_t>(1000, static_cast<std::size_t>(n));
}

}  // namespace

int main() {
  const double scale = benchh::env_scale(1.0);
  const int rounds = benchh::env_rounds();
  const std::size_t sort_n = scaled_size(kSortBase, scale);
  const std::size_t hist_n = scaled_size(kHistBase, scale);

  const auto topo = probe_topology();
  std::printf("== locality: NUMA-hierarchical victim selection ==\n");
  std::printf(
      "P=%zu | topology: %zu cpus, %zu sockets, %zu nodes (sysfs=%d) | "
      "scale=%.3g rounds=%d\n",
      kWorkers, topo.cpus.size(), topo.socket_count(), topo.node_count(),
      topo.from_sysfs ? 1 : 0, scale, rounds);
  std::printf(
      "near = smt/core/llc tier; on flat topologies near/remote merge and "
      "near_fraction is not meaningful\n\n");
  std::printf("%-12s %-16s %-4s %12s %10s %10s %10s %8s\n", "kernel",
              "scheduler", "loc", "median (ms)", "steals", "near", "remote",
              "near_fr");

  // Inputs are generated once; the kernels copy per run so every round
  // sorts/histograms the same bytes.
  std::vector<std::uint64_t> sort_input(sort_n);
  xoshiro256 rng(42);
  for (auto& x : sort_input) x = rng();
  std::vector<std::uint32_t> hist_input(hist_n);
  for (std::size_t i = 0; i < hist_n; ++i) {
    hist_input[i] = static_cast<std::uint32_t>(hash64(i) % kHistBuckets);
  }

  run_kernel("sample_sort", rounds, [&](auto& sched) {
    auto v = sort_input;
    par::sample_sort(sched, v);
    if (v.front() > v.back()) std::abort();  // keep the sort observable
  });
  run_kernel("histogram", rounds, [&](auto& sched) {
    const auto h =
        par::histogram(sched, hist_input.begin(), hist_input.size(),
                       kHistBuckets);
    if (h.size() != kHistBuckets) std::abort();
  });
  return 0;
}
