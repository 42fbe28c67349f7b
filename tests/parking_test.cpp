// Adaptive worker parking (elastic idling): parking_lot unit tests, the
// never-lose-a-wakeup stress test, the counter-faithfulness proof (parking
// must not perturb the paper's fence/CAS/steal/exposure profiles), and the
// stale-targeted_-flag regression test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sched/dispatch.h"
#include "sched/scheduler.h"
#include "support/parking_lot.h"
#include "support/rng.h"
#include "support/timing.h"

namespace lcws {
namespace {

using namespace std::chrono_literals;

constexpr auto kLongTimeout = std::chrono::microseconds(2'000'000);

void spin_for_ns(std::uint64_t ns) {
  stopwatch sw;
  volatile std::uint64_t sink = 0;
  while (sw.elapsed_ns() < ns) {
    for (int i = 0; i < 64; ++i) sink = sink + 1;
  }
}

// ---- parking_lot primitive ------------------------------------------------

TEST(ParkingLot, PermitDeliveredBeforeParkIsConsumedImmediately) {
  parking_lot lot(2);
  lot.announce(0);
  EXPECT_EQ(lot.sleepers(), 1u);
  EXPECT_TRUE(lot.unpark_one());
  EXPECT_EQ(lot.sleepers(), 0u);
  // The permit is sticky: the park that follows the claimed announcement
  // returns woken without blocking for the full timeout.
  stopwatch sw;
  EXPECT_TRUE(lot.park(0, kLongTimeout));
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

TEST(ParkingLot, UnparkOneWakesAParkedThread) {
  parking_lot lot(2);
  std::atomic<bool> woken{false};
  std::thread parker([&] {
    lot.announce(1);
    woken.store(lot.park(1, kLongTimeout));
  });
  while (lot.sleepers() == 0) std::this_thread::yield();
  while (!lot.unpark_one()) std::this_thread::yield();
  parker.join();
  EXPECT_TRUE(woken.load());
  EXPECT_EQ(lot.sleepers(), 0u);
}

TEST(ParkingLot, TimeoutExpiresWithoutAWake) {
  parking_lot lot(1);
  lot.announce(0);
  EXPECT_FALSE(lot.park(0, std::chrono::microseconds(100)));
  EXPECT_EQ(lot.sleepers(), 0u);  // park retires the announcement
}

TEST(ParkingLot, CancelRetiresAnnouncement) {
  parking_lot lot(1);
  lot.announce(0);
  lot.cancel(0);
  EXPECT_EQ(lot.sleepers(), 0u);
  EXPECT_FALSE(lot.unpark_one());
}

TEST(ParkingLot, UnparkAllWakesEveryParkedWorker) {
  constexpr std::size_t kN = 3;
  parking_lot lot(kN);
  std::atomic<int> woken{0};
  std::vector<std::thread> parkers;
  for (std::size_t i = 0; i < kN; ++i) {
    parkers.emplace_back([&, i] {
      lot.announce(i);
      if (lot.park(i, kLongTimeout)) woken.fetch_add(1);
    });
  }
  while (lot.sleepers() < kN) std::this_thread::yield();
  EXPECT_EQ(lot.unpark_all(), kN);
  for (auto& t : parkers) t.join();
  EXPECT_EQ(woken.load(), static_cast<int>(kN));
}

TEST(ParkingLot, TargetedUnparkPermitIsStickyAcrossAnnounce) {
  parking_lot lot(2);
  // A targeted wake with no announcement outstanding (mailbox request racing
  // a victim that has not yet announced) leaves a permit...
  lot.unpark(0);
  // ...which the victim's next park consumes instantly.
  lot.announce(0);
  stopwatch sw;
  EXPECT_TRUE(lot.park(0, kLongTimeout));
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

// ---- scheduler integration ------------------------------------------------

TEST(Parking, SingleWorkerPoolNeverParks) {
  ws_scheduler sched(1, pool_config{.parking = true});
  EXPECT_FALSE(sched.parking_active());
}

// With one worker spinning sequentially and the rest idle, parking must
// engage (parks and parked nanoseconds accumulate); with the kill-switch
// thrown, the parking counters must stay exactly zero.
TEST(Parking, EngagesWhenIdleAndKillSwitchIsInert) {
  for (const sched_kind kind : all_sched_kinds) {
    for (const bool on : {true, false}) {
      with_scheduler(
          kind, 8, pool_config{.parking = on}, [&](auto& sched) {
            EXPECT_EQ(sched.parking_active(), on) << to_string(kind);
            sched.reset_counters();
            sched.run([&] { spin_for_ns(50'000'000); });
            const auto t = sched.profile().totals;
            if (on) {
              EXPECT_GT(t.parks, 0u) << to_string(kind);
              EXPECT_GT(t.idle_ns, 0u) << to_string(kind);
            } else {
              EXPECT_EQ(t.parks, 0u) << to_string(kind);
              EXPECT_EQ(t.wakes, 0u) << to_string(kind);
              EXPECT_EQ(t.idle_ns, 0u) << to_string(kind);
            }
          });
    }
  }
}

// ---- counter faithfulness (profile equivalence) ---------------------------

// Phase A: a purely sequential computation at P=8. Idle thieves probe empty
// deques, which is fence- and CAS-free in both the ABP and split deques, and
// parking itself is uncounted — so the protocol counters the paper plots
// must be *zero*, parked or spinning. (The mailbox family's probes post
// requests — a CAS and a counted request per probe, nondeterministically
// many — so it only pins the fence/steal/exposure columns.)
TEST(ProfileEquivalence, SequentialWorkloadKeepsProtocolCountersZero) {
  for (const sched_kind kind : all_sched_kinds) {
    for (const bool parking : {true, false}) {
      const pool_config cfg{.parking = parking};
      with_scheduler(kind, 8, cfg, [&](auto& sched) {
        sched.reset_counters();
        sched.run([&] { spin_for_ns(10'000'000); });
        const auto t = sched.profile().totals;
        const char* ctx = to_string(kind);
        EXPECT_EQ(t.fences, 0u) << ctx;
        EXPECT_EQ(t.steals, 0u) << ctx;
        EXPECT_EQ(t.exposures, 0u) << ctx;
        EXPECT_EQ(t.unexposures, 0u) << ctx;
        EXPECT_EQ(t.signals_sent, 0u) << ctx;
        if (kind != sched_kind::private_deques) {
          EXPECT_EQ(t.cas, 0u) << ctx;
          EXPECT_EQ(t.exposure_requests, 0u) << ctx;
        }
      });
    }
  }
}

template <typename Sched>
std::uint64_t fib(Sched& sched, unsigned n) {
  if (n < 2) return n;
  if (n < 16) {  // sequential cutoff: keep task counts deterministic-ish
    return fib(sched, n - 1) + fib(sched, n - 2);
  }
  std::uint64_t left = 0, right = 0;
  sched.pardo([&] { left = fib(sched, n - 1); },
              [&] { right = fib(sched, n - 2); });
  return left + right;
}

// Phase B: at P=1 the schedule is fully deterministic (no thieves, and
// parking is inert by construction), so the *entire* profile must be
// bit-identical with parking enabled vs disabled.
TEST(ProfileEquivalence, SingleWorkerProfilesAreIdentical) {
  for (const sched_kind kind : all_sched_kinds) {
    stats::op_counters t[2];
    int i = 0;
    for (const bool parking : {true, false}) {
      const pool_config cfg{.parking = parking};
      with_scheduler(kind, 1, cfg, [&](auto& sched) {
        sched.reset_counters();
        sched.run([&] { (void)fib(sched, 22); });
        t[i] = sched.profile().totals;
      });
      ++i;
    }
    const char* ctx = to_string(kind);
    EXPECT_EQ(t[0].fences, t[1].fences) << ctx;
    EXPECT_EQ(t[0].cas, t[1].cas) << ctx;
    EXPECT_EQ(t[0].pushes, t[1].pushes) << ctx;
    EXPECT_EQ(t[0].pops_private, t[1].pops_private) << ctx;
    EXPECT_EQ(t[0].pops_public, t[1].pops_public) << ctx;
    EXPECT_EQ(t[0].steal_attempts, t[1].steal_attempts) << ctx;
    EXPECT_EQ(t[0].steals, t[1].steals) << ctx;
    EXPECT_EQ(t[0].exposures, t[1].exposures) << ctx;
    EXPECT_EQ(t[0].exposure_requests, t[1].exposure_requests) << ctx;
    EXPECT_EQ(t[0].unexposures, t[1].unexposures) << ctx;
    EXPECT_EQ(t[0].signals_sent, t[1].signals_sent) << ctx;
    EXPECT_EQ(t[0].tasks_executed, t[1].tasks_executed) << ctx;
    EXPECT_EQ(t[0].parks, 0u) << ctx;
    EXPECT_EQ(t[1].parks, 0u) << ctx;
  }
}

// Phase C: at P=4 the steal schedule is nondeterministic, but the *work* is
// not: every pardo pushes exactly one job and every job runs exactly once,
// parked or not. Structure-determined counters must match across modes.
// (Lace-style unexposure re-pushes each reclaimed task — a schedule-
// dependent extra push_bottom — so the structural push count is
// pushes - unexposures.)
TEST(ProfileEquivalence, WorkCountersMatchAcrossModesAtP4) {
  for (const sched_kind kind : all_sched_kinds) {
    stats::op_counters t[2];
    std::uint64_t result[2];
    int i = 0;
    for (const bool parking : {true, false}) {
      const pool_config cfg{.parking = parking};
      with_scheduler(kind, 4, cfg, [&](auto& sched) {
        sched.reset_counters();
        result[i] = sched.run([&] { return fib(sched, 24); });
        t[i] = sched.profile().totals;
      });
      ++i;
    }
    const char* ctx = to_string(kind);
    EXPECT_EQ(result[0], result[1]) << ctx;
    EXPECT_EQ(t[0].pushes - t[0].unexposures,
              t[1].pushes - t[1].unexposures)
        << ctx;
    EXPECT_EQ(t[0].tasks_executed, t[1].tasks_executed) << ctx;
    EXPECT_EQ(t[1].parks, 0u) << ctx;  // kill-switch: no parking at all
    EXPECT_EQ(t[1].wakes, 0u) << ctx;
  }
}

// ---- stress: no lost wakeups, no deadlocks --------------------------------

// Same deterministic random tree as scheduler_fuzz_test.cpp.
template <typename Sched>
std::uint64_t random_tree(Sched& sched, std::uint64_t seed,
                          std::uint64_t path, unsigned depth) {
  const std::uint64_t h = hash64(seed ^ path);
  if (depth == 0 || (h & 7) == 0) {
    std::uint64_t acc = h;
    const unsigned iters = 1 + (h >> 8) % 200;
    for (unsigned i = 0; i < iters; ++i) acc = hash64(acc);
    return acc;
  }
  std::uint64_t left = 0, right = 0;
  const unsigned left_depth = (h >> 16) % (depth + 1);
  const unsigned right_depth = (h >> 24) % (depth + 1);
  sched.pardo(
      [&] { left = random_tree(sched, seed, path * 2 + 1, left_depth); },
      [&] { right = random_tree(sched, seed, path * 2 + 2, right_depth); });
  return left ^ (right * 0x9e3779b97f4a7c15ULL);
}

std::uint64_t random_tree_seq(std::uint64_t seed, std::uint64_t path,
                              unsigned depth) {
  const std::uint64_t h = hash64(seed ^ path);
  if (depth == 0 || (h & 7) == 0) {
    std::uint64_t acc = h;
    const unsigned iters = 1 + (h >> 8) % 200;
    for (unsigned i = 0; i < iters; ++i) acc = hash64(acc);
    return acc;
  }
  const unsigned left_depth = (h >> 16) % (depth + 1);
  const unsigned right_depth = (h >> 24) % (depth + 1);
  const std::uint64_t left = random_tree_seq(seed, path * 2 + 1, left_depth);
  const std::uint64_t right =
      random_tree_seq(seed, path * 2 + 2, right_depth);
  return left ^ (right * 0x9e3779b97f4a7c15ULL);
}

// Repeated run -> quiesce cycles with parking on: every cycle the workers
// park (the sleep between runs far exceeds the adaptive backstop), and the
// next run must wake them and complete. A lost wakeup shows up as a hang
// (gtest/ctest timeout); a protocol race shows up under TSan (the tsan
// preset builds this same test). Bursts *inside* a run (work appearing
// after everyone quiesced mid-run) are exercised by the second loop.
TEST(ParkingStress, RunQuiesceCyclesAcrossAllFamilies) {
  for (const sched_kind kind : all_sched_kinds) {
    with_scheduler(kind, 8, pool_config{.parking = true}, [&](auto& sched) {
      for (std::uint64_t cycle = 0; cycle < 5; ++cycle) {
        const std::uint64_t seed = 900 + cycle;
        const std::uint64_t expected = random_tree_seq(seed, 0, 12);
        const std::uint64_t got =
            sched.run([&] { return random_tree(sched, seed, 0, 12); });
        ASSERT_EQ(got, expected)
            << to_string(kind) << " cycle=" << cycle;
        std::this_thread::sleep_for(3ms);  // everyone parks (backstop ~100us)
      }
      // Mid-run quiesce: sequential lull, then a parallel burst that parked
      // workers must wake for.
      const std::uint64_t got = sched.run([&] {
        std::uint64_t acc = 0;
        for (int burst = 0; burst < 3; ++burst) {
          spin_for_ns(2'000'000);
          acc ^= random_tree(sched, 777 + burst, 0, 12);
        }
        return acc;
      });
      std::uint64_t expected = 0;
      for (int burst = 0; burst < 3; ++burst) {
        expected ^= random_tree_seq(777 + burst, 0, 12);
      }
      ASSERT_EQ(got, expected) << to_string(kind);
    });
  }
}

// ---- stale targeted_ flag regression --------------------------------------

// A targeted_ flag left set when a run drains used to survive into the next
// run() on the same pool. run() must clear it.
TEST(StaleTargetedFlag, ClearedAtRunEntry) {
  for (const sched_kind kind : all_sched_kinds) {
    with_scheduler(kind, 2, [&](auto& sched) {
      sched.set_targeted(0, true);
      sched.set_targeted(1, true);
      sched.run([] {});
      EXPECT_FALSE(sched.is_targeted(0)) << to_string(kind);
      EXPECT_FALSE(sched.is_targeted(1)) << to_string(kind);
    });
  }
}

// Counter-level proof of the user-space-family symptom: at P=1 there are no
// thieves, so a correct run performs zero exposures and zero fences. With a
// stale flag surviving into run(), the first nested pop would spuriously
// expose the outer pardo's pending job (1 exposure, 2 fences, 1 CAS).
TEST(StaleTargetedFlag, NoSpuriousExposureAtP1) {
  for (const sched_kind kind : {sched_kind::uslcws, sched_kind::lace}) {
    with_scheduler(kind, 1, [&](auto& sched) {
      sched.set_targeted(0, true);
      sched.reset_counters();
      sched.run([&] {
        sched.pardo([&] { sched.pardo([] {}, [] {}); }, [] {});
      });
      const auto t = sched.profile().totals;
      EXPECT_EQ(t.exposures, 0u) << to_string(kind);
      EXPECT_EQ(t.fences, 0u) << to_string(kind);
      EXPECT_EQ(t.cas, 0u) << to_string(kind);
    });
  }
}

}  // namespace
}  // namespace lcws
