// Correctness, instrumentation and liveness tests for the five schedulers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "sched/dispatch.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

// ---------------------------------------------------------------------------
// Typed tests: identical behavioural contract for every scheduler family.
// ---------------------------------------------------------------------------

template <typename Sched>
class SchedulerTest : public ::testing::Test {};

using all_schedulers =
    ::testing::Types<ws_scheduler, uslcws_scheduler, signal_scheduler,
                     conservative_scheduler, expose_half_scheduler,
                     private_deques_scheduler, lace_scheduler,
                     wsmult_scheduler>;

TYPED_TEST_SUITE(SchedulerTest, all_schedulers);

// Recursive fork-join Fibonacci: the classic scheduler correctness probe.
template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  if (n < 12) {  // sequential cutoff
    std::uint64_t a = 0, b = 1;
    for (unsigned i = 1; i < n; ++i) {
      const std::uint64_t c = a + b;
      a = b;
      b = c;
    }
    return b;
  }
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = fib(sched, n - 1); },
              [&] { right = fib(sched, n - 2); });
  return left + right;
}

// Divide-and-conquer sum over [lo, hi).
template <typename Sched>
std::uint64_t dc_sum(Sched& sched, const std::vector<std::uint32_t>& data,
                     std::size_t lo, std::size_t hi) {
  if (hi - lo <= 512) {
    return std::accumulate(data.begin() + static_cast<std::ptrdiff_t>(lo),
                           data.begin() + static_cast<std::ptrdiff_t>(hi),
                           std::uint64_t{0});
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = dc_sum(sched, data, lo, mid); },
              [&] { right = dc_sum(sched, data, mid, hi); });
  return left + right;
}

TYPED_TEST(SchedulerTest, SingleWorkerRunsSequentially) {
  TypeParam sched(1);
  const std::uint64_t result = sched.run([&] { return fib(sched, 20); });
  EXPECT_EQ(result, 6765u);
}

TYPED_TEST(SchedulerTest, FibonacciWithFourWorkers) {
  TypeParam sched(4);
  const std::uint64_t result = sched.run([&] { return fib(sched, 24); });
  EXPECT_EQ(result, 46368u);
}

TYPED_TEST(SchedulerTest, PardoOutsideRunSelfWraps) {
  TypeParam sched(2);
  int left = 0, right = 0;
  sched.pardo([&] { left = 1; }, [&] { right = 2; });
  EXPECT_EQ(left, 1);
  EXPECT_EQ(right, 2);
}

TYPED_TEST(SchedulerTest, DivideAndConquerSumMatchesSequential) {
  std::vector<std::uint32_t> data(100000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  const std::uint64_t expected =
      std::accumulate(data.begin(), data.end(), std::uint64_t{0});
  TypeParam sched(4);
  const std::uint64_t result =
      sched.run([&] { return dc_sum(sched, data, 0, data.size()); });
  EXPECT_EQ(result, expected);
}

// Every leaf task runs exactly once — double execution (the failure mode of
// a broken owner/thief race) would overshoot the counter.
TYPED_TEST(SchedulerTest, EveryLeafExecutesExactlyOnce) {
  constexpr int kLeaves = 1 << 12;
  std::vector<std::atomic<int>> executed(kLeaves);
  for (auto& e : executed) e.store(0);

  TypeParam sched(8);  // oversubscribed: forces heavy interleaving
  struct rec {
    static void go(TypeParam& s, std::vector<std::atomic<int>>& ex, int lo,
                   int hi) {
      if (hi - lo == 1) {
        ex[static_cast<std::size_t>(lo)].fetch_add(1);
        return;
      }
      const int mid = lo + (hi - lo) / 2;
      s.pardo([&] { go(s, ex, lo, mid); }, [&] { go(s, ex, mid, hi); });
    }
  };
  sched.run([&] { rec::go(sched, executed, 0, kLeaves); });

  for (int i = 0; i < kLeaves; ++i) {
    ASSERT_EQ(executed[static_cast<std::size_t>(i)].load(), 1)
        << "leaf " << i;
  }
}

TYPED_TEST(SchedulerTest, RepeatedRunsOnSamePool) {
  TypeParam sched(4);
  for (int round = 0; round < 5; ++round) {
    const std::uint64_t result = sched.run([&] { return fib(sched, 20); });
    ASSERT_EQ(result, 6765u);
  }
}

TYPED_TEST(SchedulerTest, NestedPardoDeepRecursion) {
  TypeParam sched(4);
  std::atomic<int> count{0};
  struct rec {
    static void go(TypeParam& s, std::atomic<int>& c, int depth) {
      if (depth == 0) {
        c.fetch_add(1);
        return;
      }
      s.pardo([&] { go(s, c, depth - 1); }, [&] { go(s, c, depth - 1); });
    }
  };
  sched.run([&] { rec::go(sched, count, 10); });
  EXPECT_EQ(count.load(), 1024);
}

TYPED_TEST(SchedulerTest, RunReturnsValue) {
  TypeParam sched(2);
  const int v = sched.run([] { return 17; });
  EXPECT_EQ(v, 17);
}

TYPED_TEST(SchedulerTest, NestedRunIsTransparent) {
  TypeParam sched(2);
  const int v = sched.run([&] { return sched.run([] { return 23; }); });
  EXPECT_EQ(v, 23);
}

TYPED_TEST(SchedulerTest, ProfileCountsTasks) {
  TypeParam sched(4);
  sched.reset_counters();
  sched.run([&] { (void)fib(sched, 22); });
  const auto p = sched.profile();
  // Every pardo pushes exactly one job, and every pushed job is eventually
  // executed by someone. A Lace-style unexposure re-pushes a reclaimed
  // task, so each unexposure adds one push without adding an execution.
  EXPECT_GT(p.totals.pushes, 0u);
  EXPECT_EQ(p.totals.tasks_executed + p.totals.unexposures, p.totals.pushes);
  if constexpr (std::is_same_v<TypeParam, wsmult_scheduler>) {
    // Multiplicity accounting (DESIGN.md §9): a steal whose claim exchange
    // lost consumed nothing, so only the claim winners count.
    EXPECT_EQ(p.totals.steals, p.totals.useful_steals + p.totals.claims_lost);
    EXPECT_EQ(p.totals.pops_private + p.totals.useful_steals,
              p.totals.pushes);
  } else {
    EXPECT_EQ(p.totals.pops_private + p.totals.pops_public + p.totals.steals,
              p.totals.pushes);
  }
}

TYPED_TEST(SchedulerTest, ResetCountersZeroes) {
  TypeParam sched(2);
  sched.run([&] { (void)fib(sched, 18); });
  sched.reset_counters();
  const auto p = sched.profile();
  EXPECT_EQ(p.totals.pushes, 0u);
  EXPECT_EQ(p.totals.tasks_executed, 0u);
}

TYPED_TEST(SchedulerTest, CustomDequeCapacity) {
  // A small capacity still runs a computation whose depth fits it.
  TypeParam sched(2, pool_config{.deque_capacity = 256});
  const std::uint64_t result = sched.run([&] { return fib(sched, 20); });
  EXPECT_EQ(result, 6765u);
  EXPECT_EQ(sched.deque_of(0).capacity(), 256u);
}

TYPED_TEST(SchedulerTest, NumWorkers) {
  TypeParam sched(3);
  EXPECT_EQ(sched.num_workers(), 3u);
  TypeParam sched0(0);  // clamps to 1
  EXPECT_EQ(sched0.num_workers(), 1u);
}

// ---------------------------------------------------------------------------
// Family-specific behaviour
// ---------------------------------------------------------------------------

// The paper's headline claim (Figs 3a, 8a): LCWS schedulers execute far
// fewer fences than WS on the same computation, because WS pays one fence
// per push and one per pop while LCWS pays fences only for exposed work.
// Every split-deque kind keeps that contract, Lace's included.
TEST(SchedulerComparison, SplitDequeSchedulersUseFarFewerFences) {
  const auto fences = [](sched_kind kind) {
    std::uint64_t n = 0;
    with_scheduler(kind, 4, [&](auto& sched) {
      sched.reset_counters();
      sched.run([&] { (void)fib(sched, 24); });
      n = sched.profile().totals.fences;
    });
    return n;
  };

  const std::uint64_t ws_fences = fences(sched_kind::ws);
  ASSERT_GT(ws_fences, 1000u);  // one per push + one per pop

  // The paper measures <1% (Fig 3a); we only assert the order-of-magnitude
  // claim to stay robust against scheduling noise.
  for (const sched_kind kind :
       {sched_kind::uslcws, sched_kind::signal, sched_kind::conservative,
        sched_kind::expose_half, sched_kind::lace}) {
    EXPECT_LT(fences(kind) * 10, ws_fences) << to_string(kind);
  }
}

TEST(SchedulerComparison, WsNeverExposesOrSignals) {
  ws_scheduler sched(4);
  sched.reset_counters();
  sched.run([&] { (void)fib(sched, 22); });
  const auto t = sched.profile().totals;
  EXPECT_EQ(t.exposures, 0u);
  EXPECT_EQ(t.signals_sent, 0u);
  EXPECT_EQ(t.private_work_seen, 0u);
}

TEST(SchedulerComparison, LaceNeverSendsSignalsAndNeverUnexposesMoreThanExposed) {
  lace_scheduler sched(4);
  sched.reset_counters();
  sched.run([&] { (void)fib(sched, 22); });
  const auto t = sched.profile().totals;
  EXPECT_EQ(t.signals_sent, 0u);
  EXPECT_LE(t.unexposures, t.exposures);
}

TEST(SchedulerComparison, LcwsVariantsNeverUnexpose) {
  // The paper's Section 2: LCWS never transfers exposed work back.
  uslcws_scheduler us(4);
  us.reset_counters();
  us.run([&] { (void)fib(us, 22); });
  EXPECT_EQ(us.profile().totals.unexposures, 0u);
  signal_scheduler sig(4);
  sig.reset_counters();
  sig.run([&] { (void)fib(sig, 22); });
  EXPECT_EQ(sig.profile().totals.unexposures, 0u);
}

TEST(SchedulerComparison, UslcwsNeverSendsSignals) {
  uslcws_scheduler sched(4);
  sched.reset_counters();
  sched.run([&] { (void)fib(sched, 22); });
  EXPECT_EQ(sched.profile().totals.signals_sent, 0u);
}

// Liveness of constant-time exposure (the property that separates the
// signal-based schedulers from USLCWS and Lace): a worker stuck in one long
// sequential task has its private fork exposed by the SIGUSR1 handler and
// stolen by a thief *while the long task still runs*. Under USLCWS this
// workload cannot terminate (the paper's Section 3.3 discussion), so it is
// only run for the schedulers that guarantee timely exposure.
template <typename Sched>
void expect_exposure_during_long_task() {
  Sched sched(2);
  sched.reset_counters();
  std::atomic<bool> right_ran{false};
  bool timed_out = false;
  sched.run([&] {
    sched.pardo(
        [&] {
          // "Long sequential task": spin until the fork is stolen. Bounded
          // so a broken implementation fails the test instead of hanging.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!right_ran.load(std::memory_order_acquire)) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              return;
            }
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  EXPECT_FALSE(timed_out) << "fork was never exposed/stolen";
  EXPECT_TRUE(right_ran.load());
  const auto t = sched.profile().totals;
  EXPECT_GE(t.steals, 1u);
}

TEST(SignalLiveness, BaseSignalSchedulerExposesDuringLongTask) {
  expect_exposure_during_long_task<signal_scheduler>();
}

TEST(SignalLiveness, ExposeHalfSchedulerExposesDuringLongTask) {
  expect_exposure_during_long_task<expose_half_scheduler>();
}

TEST(SignalLiveness, WsStealsDirectlyDuringLongTask) {
  expect_exposure_during_long_task<ws_scheduler>();
}

// Conservative Exposure refuses to expose a last private task, so the
// single-fork version above would hang; with two outstanding private forks
// it must expose the older one.
TEST(SignalLiveness, ConservativeExposesWithTwoPrivateTasks) {
  conservative_scheduler sched(2);
  sched.reset_counters();
  std::atomic<int> forks_ran{0};
  bool timed_out = false;
  sched.run([&] {
    sched.pardo(
        [&] {
          sched.pardo(
              [&] {
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(30);
                // Two private forks outstanding; wait until a thief runs
                // at least one of them.
                while (forks_ran.load(std::memory_order_acquire) == 0) {
                  if (std::chrono::steady_clock::now() > deadline) {
                    timed_out = true;
                    return;
                  }
                  std::this_thread::yield();
                }
              },
              [&] { forks_ran.fetch_add(1); });
        },
        [&] { forks_ran.fetch_add(1); });
  });
  EXPECT_FALSE(timed_out) << "conservative exposure never fired";
  EXPECT_EQ(forks_ran.load(), 2);
  EXPECT_GE(sched.profile().totals.steals, 1u);
}

TEST(SignalProtocol, SignalsAreCountedWhenExposureIsRequested) {
  signal_scheduler sched(2);
  sched.reset_counters();
  std::atomic<bool> right_ran{false};
  sched.run([&] {
    sched.pardo(
        [&] {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!right_ran.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true); });
  });
  const auto t = sched.profile().totals;
  EXPECT_GE(t.signals_sent, 1u);
  EXPECT_GE(t.exposures, 1u);
}

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

TEST(Dispatch, AllKindsConstructAndRun) {
  for (const sched_kind kind : all_sched_kinds) {
    const std::uint64_t result = with_scheduler(
        kind, 2, [](auto& sched) {
          return sched.run([&] { return fib(sched, 20); });
        });
    EXPECT_EQ(result, 6765u) << to_string(kind);
  }
}

TEST(Dispatch, NamesRoundTrip) {
  EXPECT_STREQ(to_string(sched_kind::ws), "ws");
  EXPECT_STREQ(to_string(sched_kind::uslcws), "uslcws");
  EXPECT_STREQ(to_string(sched_kind::signal), "signal");
  EXPECT_STREQ(to_string(sched_kind::conservative), "conservative");
  EXPECT_STREQ(to_string(sched_kind::expose_half), "expose_half");
  EXPECT_STREQ(ws_scheduler::name(), "ws");
  EXPECT_STREQ(expose_half_scheduler::name(), "expose_half");
}

}  // namespace
}  // namespace lcws
