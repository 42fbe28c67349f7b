// Stall-watchdog semantics: fires on a frozen progress token, stays quiet
// while progress happens or while disarmed, and integrates with the
// scheduler via pool_config::watchdog (LCWS_WATCHDOG_MS) without false
// positives on healthy runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "sched/scheduler.h"
#include "support/watchdog.h"

namespace lcws {
namespace {

using namespace std::chrono_literals;

// Polls until `pred` holds or `limit` elapses.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST(Watchdog, FiresOnFrozenProgress) {
  std::atomic<int> stalls{0};
  std::string captured;
  std::mutex m;
  watchdog dog(
      20ms, [] { return std::uint64_t{42}; },  // never advances
      [] { return std::string("frozen state dump"); },
      [&](const std::string& report) {
        std::lock_guard<std::mutex> lock(m);
        captured = report;
        stalls.fetch_add(1);
      });
  dog.arm();
  EXPECT_TRUE(eventually([&] { return stalls.load() >= 1; }, 2000ms));
  dog.disarm();
  std::lock_guard<std::mutex> lock(m);
  EXPECT_EQ(captured, "frozen state dump");
  EXPECT_GE(dog.stalls_reported(), 1u);
}

TEST(Watchdog, QuietWhileProgressAdvances) {
  std::atomic<std::uint64_t> token{0};
  std::atomic<int> stalls{0};
  watchdog dog(
      25ms, [&] { return token.fetch_add(1); },  // advances on every sample
      [] { return std::string("unused"); },
      [&](const std::string&) { stalls.fetch_add(1); });
  dog.arm();
  std::this_thread::sleep_for(300ms);
  dog.disarm();
  EXPECT_EQ(stalls.load(), 0);
}

TEST(Watchdog, QuietWhileDisarmed) {
  std::atomic<int> stalls{0};
  watchdog dog(
      20ms, [] { return std::uint64_t{7}; },  // frozen, but never armed
      [] { return std::string("unused"); },
      [&](const std::string&) { stalls.fetch_add(1); });
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(stalls.load(), 0);
}

TEST(Watchdog, DisarmStopsAnInFlightWindow) {
  std::atomic<int> stalls{0};
  watchdog dog(
      60ms, [] { return std::uint64_t{7}; },
      [] { return std::string("unused"); },
      [&](const std::string&) { stalls.fetch_add(1); });
  dog.arm();
  std::this_thread::sleep_for(20ms);  // inside the first window
  dog.disarm();
  std::this_thread::sleep_for(250ms);
  EXPECT_EQ(stalls.load(), 0);
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

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

TEST(SchedulerWatchdog, DisabledByDefault) {
  ws_scheduler sched(2, pool_config{});
  EXPECT_FALSE(sched.watchdog_active());
}

// A healthy run under an armed watchdog must not trip it: the default
// stall handler aborts the process, so a false positive fails this test
// loudly.
TEST(SchedulerWatchdog, HealthyRunDoesNotTrip) {
  ws_scheduler sched(4, pool_config{.watchdog = 2000ms});
  EXPECT_TRUE(sched.watchdog_active());
  EXPECT_EQ(sched.run([&] { return fib(sched, 24); }), 46368u);
  // Idle (disarmed) time must not accumulate toward a stall either.
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(sched.run([&] { return fib(sched, 22); }), 17711u);
}

TEST(SchedulerWatchdog, ProgressTokenAdvancesAcrossRuns) {
  uslcws_scheduler sched(2);
  const auto before = sched.progress_token();
  sched.run([&] { return fib(sched, 18); });
  EXPECT_GT(sched.progress_token(), before);
}

TEST(SchedulerWatchdog, DumpListsEveryWorker) {
  signal_scheduler sched(3);
  sched.run([&] { return fib(sched, 18); });
  const std::string dump = sched.dump_worker_state();
  EXPECT_NE(dump.find("scheduler=signal"), std::string::npos);
  EXPECT_NE(dump.find("w0:"), std::string::npos);
  EXPECT_NE(dump.find("w1:"), std::string::npos);
  EXPECT_NE(dump.find("w2:"), std::string::npos);
  EXPECT_NE(dump.find("top="), std::string::npos);
  EXPECT_NE(dump.find("targeted="), std::string::npos);
}

TEST(SchedulerWatchdog, MailboxDumpAvoidsRacyStackState) {
  private_deques_scheduler sched(2);
  const std::string dump = sched.dump_worker_state();
  EXPECT_NE(dump.find("mailbox pending_request="), std::string::npos);
}

}  // namespace
}  // namespace lcws
