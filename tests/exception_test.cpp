// Exception-propagation contract, pinned for every scheduler family: an
// exception thrown by a task — local or stolen, shallow or deep in a
// nested fork tree — rethrows at the spawning pardo after the join has
// drained, and the scheduler remains fully usable afterwards (no worker
// deadlocks, no leaked jobs, stats still balanced).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "parallel/parallel_for.h"
#include "parallel/parallel_invoke.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

struct test_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  if (n < 12) {
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

// Post-exception health check: the pool still computes correctly and every
// pushed job was consumed exactly once (the drain guarantee).
template <typename Sched>
void expect_healthy(Sched& sched) {
  EXPECT_EQ(sched.run([&] { return fib(sched, 21); }), 10946u);
  const auto t = sched.profile().totals;
  if constexpr (std::is_same_v<Sched, wsmult_scheduler>) {
    // Multiplicity accounting (DESIGN.md §9): a steal whose claim exchange
    // lost consumed nothing, so only the claim winners count.
    EXPECT_EQ(t.steals.get(), t.useful_steals.get() + t.claims_lost.get());
    EXPECT_EQ(t.pushes.get(), t.pops_private.get() + t.useful_steals.get());
  } else {
    EXPECT_EQ(t.pushes.get(),
              t.pops_private.get() + t.pops_public.get() + t.steals.get());
  }
  EXPECT_EQ(t.tasks_executed.get(), t.pushes.get() - t.unexposures.get());
}

template <typename Sched>
class ExceptionTest : public ::testing::Test {};

using all_schedulers =
    ::testing::Types<ws_scheduler, uslcws_scheduler, signal_scheduler,
                     conservative_scheduler, expose_half_scheduler,
                     private_deques_scheduler, lace_scheduler,
                     wsmult_scheduler>;

// Worker counts for the branch-order tests. At P=1 every right branch is
// popped back by its owner and runs on pardo's fast path; at P=4 a thief
// may take it instead.
constexpr std::size_t kOrderTestWorkers[] = {1, 4};

TYPED_TEST_SUITE(ExceptionTest, all_schedulers);

TYPED_TEST(ExceptionTest, RightBranchThrowRethrowsAtSpawnSite) {
  TypeParam sched(4);
  EXPECT_THROW(sched.run([&] {
    sched.pardo([] {}, [] { throw test_error("right"); });
  }),
               test_error);
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, LeftBranchThrowStillDrainsRight) {
  for (const std::size_t workers : kOrderTestWorkers) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    TypeParam sched(workers);
    std::atomic<bool> right_ran{false};
    try {
      sched.run([&] {
        sched.pardo(
            [] { throw test_error("left"); },
            [&] {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
              right_ran.store(true, std::memory_order_relaxed);
            });
      });
      FAIL() << "expected test_error";
    } catch (const test_error& e) {
      EXPECT_STREQ(e.what(), "left");
    }
    // The drain guarantee: pardo must not unwind before its sibling is
    // done.
    EXPECT_TRUE(right_ran.load(std::memory_order_relaxed));
    expect_healthy(sched);
  }
}

TYPED_TEST(ExceptionTest, BothBranchesThrowLeftWins) {
  for (const std::size_t workers : kOrderTestWorkers) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    TypeParam sched(workers);
    try {
      sched.run([&] {
        sched.pardo([] { throw test_error("left"); },
                    [] { throw test_error("right"); });
      });
      FAIL() << "expected test_error";
    } catch (const test_error& e) {
      EXPECT_STREQ(e.what(), "left");
    }
    expect_healthy(sched);
  }
}

// A task that throws after announcing it has started. With the spawner
// busy-waiting (bounded) on that announcement, the task usually runs on a
// *thief* — exercising the stolen-task capture path; when nobody steals in
// time the owner executes it itself, which must behave identically.
TYPED_TEST(ExceptionTest, ThrowInStolenTaskSurfacesAtSpawner) {
  TypeParam sched(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<bool> started{false};
    EXPECT_THROW(sched.run([&] {
      sched.pardo(
          [&] {
            // Keep the owner away from its deque so a thief gets a
            // window; bounded so families whose exposure needs the owner
            // at a scheduling point (uslcws, lace, mailbox) cannot hang.
            const auto give_up = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(50);
            while (!started.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < give_up) {
            }
          },
          [&] {
            started.store(true, std::memory_order_release);
            throw test_error("stolen");
          });
    }),
                 test_error);
  }
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, DeepNestedThrowClimbsToRoot) {
  TypeParam sched(4);
  // fib-shaped tree where one deep leaf throws: the exception must climb
  // join by join through helped/stolen intermediate frames to run()'s
  // caller.
  struct thrower {
    TypeParam& sched;
    std::uint64_t rec(unsigned n) {
      if (n < 2) return n;
      if (n == 13) throw test_error("deep");
      std::uint64_t l = 0, r = 0;
      if (n < 12) return n;  // cheap leaf; value irrelevant
      sched.pardo([&] { l = rec(n - 1); }, [&] { r = rec(n - 2); });
      return l + r;
    }
  } t{sched};
  EXPECT_THROW(sched.run([&] { return t.rec(22); }), test_error);
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, ParallelForThrowSurfacesAndSkipsNothingElse) {
  TypeParam sched(4);
  std::atomic<std::uint64_t> visited{0};
  EXPECT_THROW(sched.run([&] {
    par::parallel_for(
        sched, 0, 10000,
        [&](std::size_t i) {
          if (i == 7777) throw test_error("loop");
          visited.fetch_add(1, std::memory_order_relaxed);
        },
        64);
  }),
               test_error);
  // Every block except the throwing one completes (no cancellation), so at
  // most one grain of iterations is lost.
  EXPECT_GE(visited.load(), 10000u - 64u);
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, ParallelInvokeThrowLowestIndexWins) {
  TypeParam sched(4);
  std::atomic<int> ran{0};
  try {
    sched.run([&] {
      par::parallel_invoke(
          sched, [&] { ran.fetch_add(1); },
          [&] { throw test_error("b"); }, [&] { ran.fetch_add(1); },
          [&] { throw test_error("d"); });
    });
    FAIL() << "expected test_error";
  } catch (const test_error& e) {
    EXPECT_STREQ(e.what(), "b");  // leftmost thrower along the join path
  }
  EXPECT_EQ(ran.load(), 2);  // non-throwing callables all ran (drain)
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, RepeatedThrowsDoNotExhaustThePool) {
  TypeParam sched(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_THROW(sched.run([&] {
      sched.pardo([] {}, [] { throw test_error("again"); });
    }),
                 test_error);
  }
  expect_healthy(sched);
}

TYPED_TEST(ExceptionTest, NonStdExceptionPropagates) {
  TypeParam sched(2);
  EXPECT_THROW(
      sched.run([&] { sched.pardo([] {}, [] { throw 42; }); }), int);
  expect_healthy(sched);
}

}  // namespace
}  // namespace lcws
