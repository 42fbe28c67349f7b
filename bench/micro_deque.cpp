// Microbenchmark: owner-side deque operation cost per deque type — the
// per-operation view of the paper's claim that split deques make local
// work synchronization-free. The WS baselines pay a seq_cst fence per
// push+pop cycle; the split deque pays none while work stays private.
//
// Two modes:
//
//   default             the google-benchmark timing suite below.
//
//   LCWS_BENCH_JSON=f   deterministic structural pass (used to produce
//                       BENCH_deque.json): runs the scripted scenarios of
//                       deque_scenarios.h and appends each cell's exact
//                       fence/CAS/grow/high-water-mark counts as JSON
//                       Lines. deque_test's DequeStructural suite checks
//                       the counts against the committed file.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "deque/abp_deque.h"
#include "deque/split_deque.h"
#include "deque/wsmult_deque.h"
#include "deque_scenarios.h"

namespace {

using lcws::abp_deque;
using lcws::split_deque;
using lcws::wsmult_deque;

void BM_AbpPushPop(benchmark::State& state) {
  abp_deque<int> d(1024);
  int task = 0;
  for (auto _ : state) {
    d.push_bottom(&task);
    benchmark::DoNotOptimize(d.pop_bottom());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbpPushPop);

void BM_SplitPushPopOriginal(benchmark::State& state) {
  split_deque<int> d(1024);
  int task = 0;
  for (auto _ : state) {
    d.push_bottom(&task);
    benchmark::DoNotOptimize(d.pop_bottom_original());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitPushPopOriginal);

void BM_SplitPushPopSignalSafe(benchmark::State& state) {
  split_deque<int> d(1024);
  int task = 0;
  for (auto _ : state) {
    d.push_bottom(&task);
    benchmark::DoNotOptimize(d.pop_bottom_signal_safe());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitPushPopSignalSafe);

void BM_WsmultPushPop(benchmark::State& state) {
  wsmult_deque<int> d(1024);
  int task = 0;
  for (auto _ : state) {
    d.push_bottom(&task);
    benchmark::DoNotOptimize(d.pop_bottom());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WsmultPushPop);

// Exposed round trip: push -> expose -> pop_public (the synchronized slow
// path the split deque pays only for shared work).
void BM_SplitExposedRoundTrip(benchmark::State& state) {
  split_deque<int> d(1024);
  int task = 0;
  for (auto _ : state) {
    d.push_bottom(&task);
    d.expose_one();
    benchmark::DoNotOptimize(d.pop_bottom_original());  // private empty
    benchmark::DoNotOptimize(d.pop_public_bottom());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitExposedRoundTrip);

// Steal path cost (uncontended). Steals advance top without lowering bot,
// so the bounded deques only reset their indices when the owner drains
// them — batch the loop and drain once per batch.
constexpr int kStealBatch = 1024;

void BM_SplitStealFromPublic(benchmark::State& state) {
  split_deque<int> d(1 << 12);
  int task = 0;
  while (state.KeepRunningBatch(kStealBatch)) {
    for (int i = 0; i < kStealBatch; ++i) {
      d.push_bottom(&task);
      d.expose_one();
    }
    for (int i = 0; i < kStealBatch; ++i) {
      benchmark::DoNotOptimize(d.pop_top());
    }
    benchmark::DoNotOptimize(d.pop_public_bottom());  // resets indices
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitStealFromPublic);

void BM_AbpSteal(benchmark::State& state) {
  abp_deque<int> d(1 << 12);
  int task = 0;
  while (state.KeepRunningBatch(kStealBatch)) {
    for (int i = 0; i < kStealBatch; ++i) d.push_bottom(&task);
    for (int i = 0; i < kStealBatch; ++i) {
      benchmark::DoNotOptimize(d.pop_top());
    }
    benchmark::DoNotOptimize(d.pop_bottom());  // resets indices
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbpSteal);

void BM_WsmultSteal(benchmark::State& state) {
  wsmult_deque<int> d(1 << 12);
  int task = 0;
  while (state.KeepRunningBatch(kStealBatch)) {
    for (int i = 0; i < kStealBatch; ++i) d.push_bottom(&task);
    for (int i = 0; i < kStealBatch; ++i) {
      benchmark::DoNotOptimize(d.pop_top());
    }
    // Drain walk past the claimed slots winds the indices back.
    benchmark::DoNotOptimize(d.pop_bottom());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WsmultSteal);

// Growth ramp: the whole point of the growable deque is that this cycle
// no longer throws — time a fill that doubles 64 -> 64Ki in-loop.
void BM_SplitGrowthRamp(benchmark::State& state) {
  constexpr int kRamp = 1 << 16;
  int task = 0;
  for (auto _ : state) {
    split_deque<int> d(64);
    for (int i = 0; i < kRamp; ++i) d.push_bottom(&task);
    for (int i = 0; i < kRamp; ++i) {
      benchmark::DoNotOptimize(d.pop_bottom_original());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRamp);
}
BENCHMARK(BM_SplitGrowthRamp)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Structural mode (LCWS_BENCH_JSON)
// ---------------------------------------------------------------------------

int run_structural(const char* path) {
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "LCWS_BENCH_JSON: cannot open %s\n", path);
    return 1;
  }
  using lcws::deque_scenarios::kOps;
  std::printf("%-12s %-10s %-9s %10s %10s %10s %6s %8s\n", "scenario",
              "deque", "mode", "ops", "fences", "cas", "grows", "hwm");
  for (const auto& c : lcws::deque_scenarios::run_all()) {
    const auto& t = c.delta;
    std::printf("%-12s %-10s %-9s %10d %10llu %10llu %6llu %8llu\n",
                c.scenario, c.deque, c.mode, kOps,
                static_cast<unsigned long long>(t.fences.get()),
                static_cast<unsigned long long>(t.cas.get()),
                static_cast<unsigned long long>(t.deque_grows.get()),
                static_cast<unsigned long long>(t.deque_hwm.get()));
    std::fprintf(
        f,
        "{\"benchmark\":\"micro_deque\",\"scenario\":\"%s\",\"deque\":\"%s\","
        "\"mode\":\"%s\",\"ops\":%d,\"fences\":%llu,\"cas\":%llu,"
        "\"grows\":%llu,\"hwm\":%llu}\n",
        c.scenario, c.deque, c.mode, kOps,
        static_cast<unsigned long long>(t.fences.get()),
        static_cast<unsigned long long>(t.cas.get()),
        static_cast<unsigned long long>(t.deque_grows.get()),
        static_cast<unsigned long long>(t.deque_hwm.get()));
  }
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* path = std::getenv("LCWS_BENCH_JSON")) {
    return run_structural(path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
