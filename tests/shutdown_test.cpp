// Shutdown/quiescence coverage across all seven schedulers: destruction
// with every worker parked, repeated run() cycles on one instance,
// destruction immediately after a throwing run(), and the
// LCWS_DUMP_ON_EXIT post-mortem knob.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sched/dispatch.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = fib(sched, n - 1); },
              [&] { right = fib(sched, n - 2); });
  return left + right;
}

class Shutdown : public ::testing::TestWithParam<sched_kind> {};

// Destructor with all workers parked: run a computation, then idle long
// enough that every worker has passed kParkAfterFailures and blocked in
// the lot (or the between-runs inactive wait). Destruction must deliver
// shutdown permits to all of them and join cleanly.
TEST_P(Shutdown, DestructorWithAllWorkersParked) {
  with_scheduler(GetParam(), 8, [&](auto& sched) {
    EXPECT_EQ(sched.run([&] { return fib(sched, 12); }), 144u);
    // Workers drain into parks/inactive waits while the owner sleeps.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });  // with_scheduler destroys the pool here
}

// Repeated run() cycles on one instance: targeted flags, parking permits
// and counters must all reset correctly between computations.
TEST_P(Shutdown, RepeatedRunCyclesOnOneInstance) {
  with_scheduler(GetParam(), 4, [&](auto& sched) {
    for (int cycle = 0; cycle < 12; ++cycle) {
      EXPECT_EQ(sched.run([&] { return fib(sched, 14); }), 377u) << cycle;
    }
    const auto t = sched.profile().totals;
    if (GetParam() == sched_kind::wsmult) {
      // Multiplicity accounting (DESIGN.md §9): a steal whose claim
      // exchange lost consumed nothing, so only the claim winners count.
      EXPECT_EQ(t.steals.get(), t.useful_steals.get() + t.claims_lost.get());
      EXPECT_EQ(t.pushes.get(), t.pops_private.get() + t.useful_steals.get());
    } else {
      EXPECT_EQ(t.pushes.get(),
                t.pops_private.get() + t.pops_public.get() + t.steals.get());
    }
    EXPECT_EQ(t.tasks_executed.get(), t.pushes.get() - t.unexposures.get());
  });
}

// Destruction immediately after a throwing run(): the pardo contract says
// every sibling has drained by the time the exception surfaces, so the
// destructor must not deadlock or touch freed jobs.
TEST_P(Shutdown, DestructionImmediatelyAfterThrowingRun) {
  with_scheduler(GetParam(), 4, [&](auto& sched) {
    EXPECT_THROW(sched.run([&] {
      sched.pardo([&] { (void)fib(sched, 10); },
                  [&] {
                    (void)fib(sched, 10);
                    throw std::runtime_error("shutdown-test");
                  });
      return 0;
    }),
                 std::runtime_error);
  });  // destroyed with no intervening quiescence wait
}

// Throw, then reuse the same instance: the pool must stay serviceable.
TEST_P(Shutdown, ThrowThenReuseThenDestroy) {
  with_scheduler(GetParam(), 4, [&](auto& sched) {
    EXPECT_THROW(
        sched.run([&]() -> int { throw std::runtime_error("first"); }),
        std::runtime_error);
    EXPECT_EQ(sched.run([&] { return fib(sched, 15); }), 610u);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, Shutdown, ::testing::ValuesIn(all_sched_kinds),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

// ---------------------------------------------------------------------------
// pool_config::dump_on_exit (LCWS_DUMP_ON_EXIT)
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(DumpOnExit, WritesFinalStateToFile) {
  const std::string path =
      "/tmp/lcws_dump_" + std::to_string(::getpid()) + ".txt";
  std::remove(path.c_str());
  {
    signal_scheduler sched(2, pool_config{.dump_on_exit = path});
    EXPECT_EQ(sched.run([&] { return fib(sched, 12); }), 144u);
  }  // destructor emits the dump
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("scheduler=signal"), std::string::npos) << dump;
  EXPECT_NE(dump.find("w0"), std::string::npos);
  EXPECT_NE(dump.find("w1"), std::string::npos);
  EXPECT_NE(dump.find("tasks="), std::string::npos);
  std::remove(path.c_str());
}

TEST(DumpOnExit, AppendsAcrossInstances) {
  const std::string path =
      "/tmp/lcws_dump_append_" + std::to_string(::getpid()) + ".txt";
  std::remove(path.c_str());
  const pool_config cfg{.dump_on_exit = path};
  {
    ws_scheduler a(2, cfg);
    EXPECT_EQ(a.run([&] { return fib(a, 10); }), 55u);
  }
  {
    uslcws_scheduler b(2, cfg);
    EXPECT_EQ(b.run([&] { return fib(b, 10); }), 55u);
  }
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("scheduler=ws"), std::string::npos) << dump;
  EXPECT_NE(dump.find("scheduler=uslcws"), std::string::npos) << dump;
  std::remove(path.c_str());
}

TEST(DumpOnExit, OffByDefault) {
  const std::string path =
      "/tmp/lcws_dump_off_" + std::to_string(::getpid()) + ".txt";
  std::remove(path.c_str());
  {
    ws_scheduler sched(2, pool_config{});
    EXPECT_EQ(sched.run([&] { return fib(sched, 10); }), 55u);
  }
  std::ifstream in(path);
  EXPECT_FALSE(in.good());  // no dump_on_exit, no file
}

}  // namespace
}  // namespace lcws
