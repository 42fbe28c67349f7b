// The scripted scenarios behind micro_deque's structural mode and the
// committed BENCH_deque.json. deque_test's DequeStructural suite runs the
// same scripts and requires their counts to equal that file's.
//
// Each scenario runs a fixed 65536-op script on the split, ABP and wsmult
// deques twice: once with storage preallocated, once growing from 64 slots
// (exactly 10 doublings). The fence/CAS/grow/high-water-mark deltas are
// load-independent, so they can be compared bit for bit: growth must add
// zero fences and zero CAS, the split deque's private fill+drain must stay
// at exactly zero of both, and the wsmult deque must report zero fences
// and zero CAS on both scenarios. Cells carry no wall time: deque timing
// is the repository benchmark's deque.* probes (benchmark/README.md).
#pragma once

#include <cstddef>
#include <vector>

#include "deque/abp_deque.h"
#include "deque/split_deque.h"
#include "deque/wsmult_deque.h"
#include "stats/counters.h"

namespace lcws::deque_scenarios {

inline constexpr int kOps = 1 << 16;  // fixed op count: counters, not time
inline constexpr std::size_t kGrowStart = 64;  // 64 -> 65536: 10 doublings

struct cell {
  const char* scenario;
  const char* deque;
  const char* mode;  // "prealloc" | "grow"
  stats::op_counters delta;
};

// Runs `body` from zeroed counters on this thread (so the high-water mark
// is the cell's own) and reports its counter delta.
template <typename Body>
cell measure(const char* scenario, const char* deque, const char* mode,
             Body&& body) {
  cell c{scenario, deque, mode, {}};
  stats::local_counters() = stats::op_counters{};
  body();
  c.delta = stats::local_counters();
  return c;
}

// mode=="grow" starts at kGrowStart slots and must double its way up;
// "prealloc" starts with all kOps slots so no growth path ever runs.
inline std::size_t start_capacity(const char* mode) {
  return mode[0] == 'g' ? kGrowStart : static_cast<std::size_t>(kOps);
}

inline cell split_fill_drain(const char* mode) {
  return measure("fill_drain", "split", mode, [&] {
    split_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) d.push_bottom(&task);
    for (int i = 0; i < kOps; ++i) (void)d.pop_bottom_original();
  });
}

inline cell abp_fill_drain(const char* mode) {
  return measure("fill_drain", "abp", mode, [&] {
    abp_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) d.push_bottom(&task);
    for (int i = 0; i < kOps; ++i) (void)d.pop_bottom();
  });
}

inline cell wsmult_fill_drain(const char* mode) {
  return measure("fill_drain", "wsmult", mode, [&] {
    wsmult_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) d.push_bottom(&task);
    for (int i = 0; i < kOps; ++i) (void)d.pop_bottom();
  });
}

inline cell split_steal(const char* mode) {
  return measure("steal", "split", mode, [&] {
    split_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) {
      d.push_bottom(&task);
      d.expose_one();
    }
    for (int i = 0; i < kOps; ++i) (void)d.pop_top();
    (void)d.pop_public_bottom();  // resets indices
  });
}

inline cell abp_steal(const char* mode) {
  return measure("steal", "abp", mode, [&] {
    abp_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) d.push_bottom(&task);
    for (int i = 0; i < kOps; ++i) (void)d.pop_top();
    (void)d.pop_bottom();  // resets indices
  });
}

inline cell wsmult_steal(const char* mode) {
  return measure("steal", "wsmult", mode, [&] {
    wsmult_deque<int> d(start_capacity(mode));
    static int task = 0;
    for (int i = 0; i < kOps; ++i) d.push_bottom(&task);
    for (int i = 0; i < kOps; ++i) (void)d.pop_top();
    (void)d.pop_bottom();  // drain walk resets indices
  });
}

// Every cell, in BENCH_deque.json's order.
inline std::vector<cell> run_all() {
  return {
      split_fill_drain("prealloc"),  split_fill_drain("grow"),
      abp_fill_drain("prealloc"),    abp_fill_drain("grow"),
      wsmult_fill_drain("prealloc"), wsmult_fill_drain("grow"),
      split_steal("prealloc"),       split_steal("grow"),
      abp_steal("prealloc"),         abp_steal("grow"),
      wsmult_steal("prealloc"),      wsmult_steal("grow"),
  };
}

}  // namespace lcws::deque_scenarios
