// Cooperative cancellation and deadlines (DESIGN.md §11): cancel_run,
// run_for, LCWS_RUN_TIMEOUT_MS and the watchdog's cancel rung. None of
// these needs fault injection — they are ordinary API surface — so this
// binary links the plain library and runs in the quick (`-LE stress`) set.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "sched/dispatch.h"
#include "sched/run_errors.h"
#include "sched/scheduler.h"
#include "stats/counters.h"

namespace lcws {
namespace {

template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  if (n < 10) {
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

// A computation that never finishes on its own: it only ends when a
// cancellation point (pardo) throws. Distinct per-branch locals: the right
// branch may run on a thief concurrently with the left on this thread.
template <typename Sched>
[[noreturn]] void runaway(Sched& sched) {
  for (;;) {
    std::uint64_t l = 0, r = 0;
    sched.pardo([&] { l = fib(sched, 12); }, [&] { r = fib(sched, 12); });
    (void)(l + r);
  }
}

// setenv/unsetenv scope guard; the scheduler reads LCWS_* once at
// construction, so guards must outlive the pool under test.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~scoped_env() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

class Cancel : public ::testing::TestWithParam<sched_kind> {};

// run_for: a computation that would run forever is collapsed at the
// deadline — every pardo from then on refuses the fork — and the error
// surfaces at the run_for call. The pool is immediately reusable.
TEST_P(Cancel, RunForDeadlineCancelsRunawayAndPoolStaysUsable) {
  const sched_kind kind = GetParam();
  with_scheduler(kind, 4, [&](auto& sched) {
    sched.reset_counters();
    EXPECT_THROW(sched.run_for(std::chrono::milliseconds(50),
                               [&] { runaway(sched); }),
                 run_cancelled_error)
        << to_string(kind);
    EXPECT_TRUE(sched.run_cancel_requested()) << to_string(kind);
    EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u)
        << to_string(kind);
    // The token rearms on the next run: same pool, clean completion.
    EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u)
        << to_string(kind);
    EXPECT_FALSE(sched.run_cancel_requested()) << to_string(kind);
  });
}

// cancel_run from a thread outside the pool (a service's request handler,
// say): the cancelling edge is that thread's, the run collapses with
// run_cancelled_error, and the edge is counted exactly once.
TEST_P(Cancel, ForeignThreadCancelCollapsesRun) {
  const sched_kind kind = GetParam();
  with_scheduler(kind, 4, [&](auto& sched) {
    sched.reset_counters();
    std::atomic<bool> started{false};
    std::atomic<bool> cancelled_edge{false};
    std::thread canceller([&] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      cancelled_edge.store(sched.cancel_run(), std::memory_order_relaxed);
    });
    EXPECT_THROW(sched.run([&] {
      started.store(true, std::memory_order_release);
      runaway(sched);
    }),
                 run_cancelled_error)
        << to_string(kind);
    canceller.join();
    EXPECT_TRUE(cancelled_edge.load()) << to_string(kind);
    EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u)
        << to_string(kind);
    EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u)
        << to_string(kind);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, Cancel, ::testing::ValuesIn(all_sched_kinds),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

// LCWS_RUN_TIMEOUT_MS: every plain run() carries the deadline.
TEST(CancelRun, EnvRunTimeoutAppliesToPlainRun) {
  scoped_env timeout("LCWS_RUN_TIMEOUT_MS", "50");
  ws_scheduler sched(4);
  EXPECT_THROW(sched.run([&] { runaway(sched); }), run_cancelled_error);
  // A short run finishes before its deadline and is unaffected.
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

// cancel_run edge semantics: exactly one cancelling edge per run; calls
// between runs are no-ops; a pardo after the edge refuses the fork.
TEST(CancelRun, CancelRunEdgeIsOncePerRun) {
  ws_scheduler sched(4);
  sched.reset_counters();
  EXPECT_FALSE(sched.cancel_run());  // no active run
  EXPECT_THROW(sched.run([&] {
    EXPECT_FALSE(sched.run_cancel_requested());
    EXPECT_TRUE(sched.cancel_run());    // the edge
    EXPECT_FALSE(sched.cancel_run());   // idempotent within the run
    sched.pardo([] {}, [] {});          // cancellation point -> throws
    ADD_FAILURE() << "pardo after cancel_run must refuse the fork";
  }),
               run_cancelled_error);
  EXPECT_FALSE(sched.cancel_run());  // run is over
  EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u);
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

// A run_for nested inside an active run arms no timer of its own: its
// (much shorter) limit is ignored, the inner computation runs to
// completion past it, and only the outer deadline cancels.
TEST(CancelRun, NestedRunForObeysOnlyTheOuterDeadline) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  ws_scheduler sched(4);
  sched.reset_counters();
  std::uint64_t inner = 0;
  const auto start = steady_clock::now();
  EXPECT_THROW(sched.run_for(milliseconds(200), [&] {
    inner = sched.run_for(milliseconds(1), [&] {
      // Keeps forking for well past the inner limit.
      const auto until = steady_clock::now() + milliseconds(30);
      std::uint64_t sum = 0;
      while (steady_clock::now() < until) sum += fib(sched, 12);
      return sum;
    });
    runaway(sched);
  }),
               run_cancelled_error);
  const auto elapsed = steady_clock::now() - start;
  EXPECT_GT(inner, 0u) << "the nested run_for was cancelled at its own limit";
  EXPECT_GE(elapsed, milliseconds(200));
  EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u);
}

// Watchdog escalation ladder, first rung (§11): a frozen progress token
// cancels the run cooperatively instead of aborting. User code that polls
// run_cancel_requested() gets to exit cleanly — the run *returns*.
TEST(CancelRun, WatchdogFirstRungCancelsInsteadOfAborting) {
  scoped_env dog("LCWS_WATCHDOG_MS", "200");
  ws_scheduler sched(4);
  sched.reset_counters();
  const std::uint64_t r = sched.run([&]() -> std::uint64_t {
    // Pure user-code spin: no scheduling, so the progress token freezes
    // and the watchdog's first frozen window issues the cancel.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!sched.run_cancel_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return 42;
  });
  EXPECT_EQ(r, 42u);
  EXPECT_EQ(sched.profile().totals.runs_cancelled.get(), 1u);
  // The cancel rung sufficed: had it escalated to the abort rung this
  // whole process would be gone.
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
}

}  // namespace
}  // namespace lcws
