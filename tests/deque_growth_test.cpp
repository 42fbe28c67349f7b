// Scheduler-level coverage for growable deques (DESIGN.md §8): a spawn
// spine that provably exceeds a tiny starting capacity must complete on
// every scheduler, and the growth counters must obey their identities.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sched/dispatch.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

// Left spine of trivial right children: the owner's private deque depth
// tracks the recursion depth, so depth >> capacity forces doublings.
// Returns depth + 1. (Native stack depth stays ~1.2k frames — far below
// the worker stack limit; the single-threaded >default_deque_capacity
// case lives in deque_test.cpp where no recursion is needed.)
template <typename Sched>
std::uint64_t deep_spine(Sched& sched, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t l = 0, r = 0;
  sched.pardo([&] { l = deep_spine(sched, depth - 1); }, [&] { r = 1; });
  return l + r;
}

constexpr unsigned spine_depth = 1200;
constexpr std::size_t tiny_capacity = 64;

class GrowthSweep : public ::testing::TestWithParam<sched_kind> {};

TEST_P(GrowthSweep, DeepSpawnOutgrowsTinyCapacityAndCompletes) {
  const sched_kind kind = GetParam();
  const pool_config cfg{.deque_capacity = tiny_capacity};
  with_scheduler(kind, 4, cfg, [&](auto& sched) {
    sched.reset_counters();
    EXPECT_EQ(sched.run([&] { return deep_spine(sched, spine_depth); }),
              spine_depth + 1)
        << to_string(kind);
    const auto t = sched.profile().totals;
    if (kind == sched_kind::private_deques) {
      // The mailbox deque is unbounded std::deque storage: no growth
      // events, and its owner-local stack is not hwm-instrumented.
      EXPECT_EQ(t.deque_grows.get(), 0u) << to_string(kind);
    } else {
      EXPECT_GT(t.deque_grows.get(), 0u) << to_string(kind);
      EXPECT_GT(t.deque_hwm.get(), tiny_capacity) << to_string(kind);
      // Doubling identity: the worker holding the high-water mark must
      // have doubled from tiny_capacity at least until it covered hwm, so
      // the pool-wide grow total is at least ceil(log2(hwm/capacity)).
      std::uint64_t need = 0;
      for (std::uint64_t cap = tiny_capacity; cap < t.deque_hwm.get();
           cap *= 2) {
        ++need;
      }
      EXPECT_GE(t.deque_grows.get(), need) << to_string(kind);
    }
  });
}

TEST_P(GrowthSweep, ShallowWorkloadNeverGrows) {
  // The fast path is untouched when nothing overflows: a workload that
  // fits the default capacity records zero growth.
  const sched_kind kind = GetParam();
  with_scheduler(kind, 4, [&](auto& sched) {
    sched.reset_counters();
    EXPECT_EQ(sched.run([&] { return deep_spine(sched, 64); }), 65u);
    const auto t = sched.profile().totals;
    EXPECT_EQ(t.deque_grows.get(), 0u) << to_string(kind);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, GrowthSweep, ::testing::ValuesIn(all_sched_kinds),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace lcws
