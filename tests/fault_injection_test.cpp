// Deterministic fault-injection sweep: seeds x schedulers x armed fault
// sites. This binary links the LCWS_FAULT_INJECTION build of the library,
// so the fi:: hooks at the named sites (forced steal-CAS losses, dropped/
// delayed exposure signals, failed pthread_kill, spurious park wakeups,
// failed perf_event opens) are live; every run must still complete with
// the correct result and balanced stats counters — faults may cost
// performance, never progress or correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "deque/wsmult_deque.h"
#include "parallel/parallel_for.h"
#include "sched/dispatch.h"
#include "sched/scheduler.h"
#include "stats/counters.h"
#include "support/fault_injection.h"

namespace lcws {
namespace {

TEST(FaultInjectionBuild, HooksCompiledIn) {
  ASSERT_TRUE(fi::compiled_in())
      << "fault_injection_test must link the LCWS_FAULT_INJECTION library";
  EXPECT_FALSE(fi::armed());
}

TEST(FaultInjectionBuild, ConfigureArmsAndDisableDisarms) {
  fi::configure(/*seed=*/1, /*rate_permille=*/1000,
                fi::site_bit(fi::site::steal_cas));
  EXPECT_TRUE(fi::armed());
  // With rate 1000 every visit to an armed site injects.
  EXPECT_TRUE(fi::inject(fi::site::steal_cas));
  EXPECT_GE(fi::injected_count(fi::site::steal_cas), 1u);
  // Unarmed sites never fire regardless of rate.
  EXPECT_FALSE(fi::inject(fi::site::spurious_wake));
  fi::disable();
  EXPECT_FALSE(fi::armed());
  EXPECT_FALSE(fi::inject(fi::site::steal_cas));
}

TEST(FaultInjectionBuild, SameSeedSameSchedule) {
  auto draw = [](std::uint64_t seed) {
    fi::configure(seed, 500);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += fi::inject(fi::site::steal_cas) ? '1' : '0';
    }
    fi::disable();
    return pattern;
  };
  const auto a = draw(1234), b = draw(1234), c = draw(5678);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-64 false-failure odds
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

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

// Seeds per scheduler kind; acceptance floor is 64, raisable for soak runs.
int sweep_seeds() {
  if (const char* s = std::getenv("LCWS_FI_SEEDS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 64;
}

// run() returns when the root task is done, but a thief may still be inside
// one last exposure request: it has counted the request and not yet its
// outcome (a pthread_kill, possibly with retry backoff). Poll until every
// request has resolved to sent or failed, with a cap so a real leak still
// fails the identity checks that follow.
template <typename Sched>
stats::op_counters settled_totals(Sched& sched) {
  auto t = sched.profile().totals;
  for (int i = 0; i < 2000; ++i) {
    if (t.exposure_requests.get() ==
        t.signals_sent.get() + t.signals_failed.get()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t = sched.profile().totals;
  }
  return t;
}

class FaultSweep : public ::testing::TestWithParam<sched_kind> {
 protected:
  void TearDown() override { fi::disable(); }
};

TEST_P(FaultSweep, CompletesCorrectlyWithBalancedStatsUnderFaults) {
  const sched_kind kind = GetParam();
  const int seeds = sweep_seeds();
  for (int seed = 0; seed < seeds; ++seed) {
    // 10% fault rate across every site: high enough that a typical run
    // injects dozens of faults, low enough that work still flows.
    fi::configure(static_cast<std::uint64_t>(seed) * 0x9e3779b9ULL + 1,
                  /*rate_permille=*/100, fi::all_sites);
    with_scheduler(kind, 4, [&](auto& sched) {
      sched.reset_counters();
      // Fork-join compute plus a parallel_for: both the pardo hot path and
      // the toolkit path run under fire.
      const std::uint64_t f = sched.run([&] { return fib(sched, 17); });
      EXPECT_EQ(f, 1597u) << to_string(kind) << " seed " << seed;
      std::atomic<std::uint64_t> sum{0};
      sched.run([&] {
        par::parallel_for(
            sched, 0, 4096,
            [&](std::size_t i) {
              sum.fetch_add(i, std::memory_order_relaxed);
            },
            32);
      });
      EXPECT_EQ(sum.load(), 4096ull * 4095 / 2)
          << to_string(kind) << " seed " << seed;
      // Balance: every pushed job consumed exactly once, every original
      // job executed exactly once (re-pushes from Lace unexposure are the
      // only double-counted pushes), and no counter went negative.
      const bool signal_family = kind == sched_kind::signal ||
                                 kind == sched_kind::conservative ||
                                 kind == sched_kind::expose_half;
      const auto t =
          signal_family ? settled_totals(sched) : sched.profile().totals;
      if (kind == sched_kind::wsmult) {
        // Multiplicity accounting (DESIGN.md §9): a wsmult "steal" is any
        // claim arbitration on an index the thief's snapshot said was
        // occupied, so exactly-once consumption runs through the claim
        // winners and the claim identity must balance the rest.
        EXPECT_EQ(t.steals.get(),
                  t.useful_steals.get() + t.claims_lost.get())
            << to_string(kind) << " seed " << seed;
        EXPECT_EQ(t.pushes.get(),
                  t.pops_private.get() + t.useful_steals.get())
            << to_string(kind) << " seed " << seed;
      } else {
        EXPECT_EQ(t.pushes.get(), t.pops_private.get() +
                                      t.pops_public.get() + t.steals.get())
            << to_string(kind) << " seed " << seed;
      }
      EXPECT_EQ(t.tasks_executed.get(), t.pushes.get() - t.unexposures.get())
          << to_string(kind) << " seed " << seed;
      EXPECT_GE(t.steal_attempts.get(), t.steals.get() + t.steal_aborts.get());
      // Signal family: every counted exposure request resolved to exactly
      // one outcome, sent or recorded-failed.
      if (signal_family) {
        EXPECT_EQ(t.exposure_requests.get(),
                  t.signals_sent.get() + t.signals_failed.get())
            << to_string(kind) << " seed " << seed;
      }
    });
    fi::disable();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, FaultSweep, ::testing::ValuesIn(all_sched_kinds),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

// Directed test, one instance per signal-family kind: with pthread_kill
// forced to fail 100% of the time, every exposure request takes Listing
// 3's failure branch (the thief clears the victim's flag so a later thief
// can retry). Runs must still complete correctly, without a watchdog
// stall, and every request must be accounted as a recorded-failed send.
// The unparameterized FaultDirected tests form their own suite.
class FaultDirected : public ::testing::TestWithParam<sched_kind> {
 protected:
  void TearDown() override { fi::disable(); }
};

TEST_P(FaultDirected, SignalSendAlwaysFailsStillCompletes) {
  const sched_kind kind = GetParam();
  fi::configure(7, /*rate_permille=*/1000, fi::site_bit(fi::site::signal_send));
  const pool_config cfg{.watchdog = std::chrono::milliseconds(4000)};
  with_scheduler(kind, 4, cfg, [&](auto& sched) {
    ASSERT_TRUE(sched.watchdog_active());
    sched.reset_counters();
    for (int iter = 0; iter < 8; ++iter) {
      ASSERT_EQ(sched.run([&] { return fib(sched, 17); }), 1597u)
          << to_string(kind) << " iter " << iter;
    }
    const auto t = settled_totals(sched);
    EXPECT_EQ(t.signals_sent.get(), 0u) << to_string(kind);
    EXPECT_EQ(t.exposure_requests.get(), t.signals_failed.get())
        << to_string(kind);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SignalFamily, FaultDirected,
    ::testing::Values(sched_kind::signal, sched_kind::conservative,
                      sched_kind::expose_half),
    [](const ::testing::TestParamInfo<sched_kind>& info) {
      return std::string(to_string(info.param));
    });

// Directed test: every exposure signal delivered but dropped by the
// handler — the victim simply keeps and executes its own work.
TEST(FaultDirected, ExposureAlwaysDroppedStillCompletes) {
  fi::configure(8, /*rate_permille=*/1000,
                fi::site_bit(fi::site::exposure_drop));
  expose_half_scheduler sched(4);
  sched.reset_counters();
  EXPECT_EQ(sched.run([&] { return fib(sched, 17); }), 1597u);
  const auto t = sched.profile().totals;
  // Dropped handlers expose nothing, so thieves can never steal from the
  // split deque's (empty) public part.
  EXPECT_EQ(t.exposures.get(), 0u);
  EXPECT_EQ(t.steals.get(), 0u);
  fi::disable();
}

// Directed test: every steal attempt loses its CAS — the pool degrades to
// sequential execution by the owner but still terminates correctly.
TEST(FaultDirected, AllStealsFailStillCompletes) {
  fi::configure(9, /*rate_permille=*/1000, fi::site_bit(fi::site::steal_cas));
  uslcws_scheduler sched(4);
  sched.reset_counters();
  EXPECT_EQ(sched.run([&] { return fib(sched, 16); }), 987u);
  EXPECT_EQ(sched.profile().totals.steals.get(), 0u);
  fi::disable();
}

// Directed test: the wsmult_dup site stalls every extractor between its
// index snapshot and its claim, and makes winning thieves "forget" to
// advance top — the stalled-thief schedule in which the fence-free deque
// genuinely extracts indices more than once. The slot-claim exchange must
// keep execution exactly-once: correct results, the claim identity, and
// the push balance routed through claim winners. Multiplicity must be
// *observable*: any successful steal leaves a claimed slot in the owner's
// downward walk, so dup_extractions moves whenever steals do.
TEST(FaultDirected, WsmultDuplicateExtractionResolvedByClaims) {
  for (int seed = 0; seed < 16; ++seed) {
    fi::configure(static_cast<std::uint64_t>(seed) * 0x6c8e9cf5ULL + 5,
                  /*rate_permille=*/1000,
                  fi::site_bit(fi::site::wsmult_dup));
    wsmult_scheduler sched(4);
    sched.reset_counters();
    EXPECT_EQ(sched.run([&] { return fib(sched, 17); }), 1597u)
        << "seed " << seed;
    const auto t = sched.profile().totals;
    EXPECT_EQ(t.steals.get(), t.useful_steals.get() + t.claims_lost.get())
        << "seed " << seed;
    EXPECT_EQ(t.pushes.get(), t.pops_private.get() + t.useful_steals.get())
        << "seed " << seed;
    EXPECT_EQ(t.tasks_executed.get(), t.pushes.get()) << "seed " << seed;
    if (t.useful_steals.get() > 0) {
      EXPECT_GT(t.dup_extractions.get(), 0u) << "seed " << seed;
    }
    fi::disable();
  }
}

// Deterministic single-threaded proof of the claim identity: with the
// wsmult_dup site at 100% a winning pop_top never advances top, so the
// very next pop_top re-extracts the same index and must lose the slot
// claim — every duplicate is scripted, so the counters are exact. Also
// pins the headline property DequeStructural.* checks on micro_deque's
// scripts: the whole sequence runs zero fences and zero CAS.
TEST(FaultDirected, WsmultClaimBitPreservesStealIdentity) {
  fi::configure(13, /*rate_permille=*/1000,
                fi::site_bit(fi::site::wsmult_dup));
  const stats::op_counters before = stats::local_counters();
  wsmult_deque<int> d(64);
  int a = 0, b = 1, c = 2;
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  const auto r1 = d.pop_top();  // wins index 0, top store suppressed
  ASSERT_EQ(r1.status, steal_status::stolen);
  EXPECT_EQ(r1.task, &a);
  const auto r2 = d.pop_top();  // duplicate extraction of index 0: loses
  EXPECT_EQ(r2.status, steal_status::aborted);
  const auto r3 = d.pop_top();  // healed to index 1: wins
  ASSERT_EQ(r3.status, steal_status::stolen);
  EXPECT_EQ(r3.task, &b);
  const auto r4 = d.pop_top();  // duplicate of index 1: loses
  EXPECT_EQ(r4.status, steal_status::aborted);
  const auto r5 = d.pop_top();  // index 2: wins
  ASSERT_EQ(r5.status, steal_status::stolen);
  EXPECT_EQ(r5.task, &c);
  const stats::op_counters delta = stats::local_counters() - before;
  EXPECT_EQ(delta.steal_attempts.get(), 5u);
  EXPECT_EQ(delta.steals.get(), 5u);
  EXPECT_EQ(delta.useful_steals.get(), 3u);
  EXPECT_EQ(delta.claims_lost.get(), 2u);
  EXPECT_EQ(delta.steals.get(),
            delta.useful_steals.get() + delta.claims_lost.get());
  EXPECT_EQ(delta.dup_extractions.get(), 2u);
  EXPECT_EQ(delta.fences.get(), 0u);
  EXPECT_EQ(delta.cas.get(), 0u);
  fi::disable();
}

// A left-leaning spine: each level forks one trivial right child and
// recurses down the left, so the owner's private deque holds ~depth jobs
// at the deepest point. With a tiny starting capacity this forces many
// growth events while thieves are live. Returns depth + 1.
template <typename Sched>
std::uint64_t deep_spine(Sched& sched, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t l = 0, r = 0;
  sched.pardo([&] { l = deep_spine(sched, depth - 1); }, [&] { r = 1; });
  return l + r;
}

// The tentpole's race scenario: every growth event pauses the owner
// between allocating the doubled buffer and publishing it (deque_grow
// site at 100%), stretching the window in which thieves race the swap.
// Work must still complete exactly once with balanced counters, and the
// growth counters must actually move (except for the unbounded mailbox
// deque, which never grows).
TEST_P(FaultSweep, DequeGrowthRacingThievesCompletesExactlyOnce) {
  const sched_kind kind = GetParam();
  const int seeds = std::max(4, sweep_seeds() / 4);
  for (int seed = 0; seed < seeds; ++seed) {
    fi::configure(static_cast<std::uint64_t>(seed) * 0x2545f491ULL + 3,
                  /*rate_permille=*/1000, fi::site_bit(fi::site::deque_grow));
    const pool_config cfg{.deque_capacity = 64};
    with_scheduler(kind, 4, cfg, [&](auto& sched) {
      sched.reset_counters();
      const std::uint64_t v = sched.run([&] { return deep_spine(sched, 1200); });
      EXPECT_EQ(v, 1201u) << to_string(kind) << " seed " << seed;
      const auto t = sched.profile().totals;
      if (kind == sched_kind::wsmult) {
        EXPECT_EQ(t.steals.get(),
                  t.useful_steals.get() + t.claims_lost.get())
            << to_string(kind) << " seed " << seed;
        EXPECT_EQ(t.pushes.get(),
                  t.pops_private.get() + t.useful_steals.get())
            << to_string(kind) << " seed " << seed;
      } else {
        EXPECT_EQ(t.pushes.get(), t.pops_private.get() +
                                      t.pops_public.get() + t.steals.get())
            << to_string(kind) << " seed " << seed;
      }
      EXPECT_EQ(t.tasks_executed.get(), t.pushes.get() - t.unexposures.get())
          << to_string(kind) << " seed " << seed;
      if (kind == sched_kind::private_deques) {
        EXPECT_EQ(t.deque_grows.get(), 0u) << to_string(kind);
      } else {
        EXPECT_GT(t.deque_grows.get(), 0u)
            << to_string(kind) << " seed " << seed
            << ": spine never outgrew the 64-slot start";
        EXPECT_GE(fi::injected_count(fi::site::deque_grow), 1u)
            << to_string(kind) << " seed " << seed;
        EXPECT_GT(t.deque_hwm.get(), 64u)
            << to_string(kind) << " seed " << seed;
      }
    });
    fi::disable();
  }
}

// Directed test: parking under permanent spurious wakeups must neither
// hang nor lose permits.
TEST(FaultDirected, SpuriousWakeupsEverywhereStillCompletes) {
  fi::configure(10, /*rate_permille=*/1000,
                fi::site_bit(fi::site::spurious_wake));
  ws_scheduler sched(4, pool_config{.parking = true});
  sched.reset_counters();
  EXPECT_EQ(sched.run([&] { return fib(sched, 17); }), 1597u);
  fi::disable();
}

// Directed test: every worker's perf_event group fails to open with
// EACCES. The profile's hardware block and the worker dump must both name
// the failure, with zeros that never pose as measurements.
TEST(FaultDirected, PerfOpenFailureFlowsIntoSchedulerProfile) {
  fi::configure(11, /*rate_permille=*/1000,
                fi::site_bit(fi::site::perf_open));
  ws_scheduler sched(2, pool_config{.perf = true});
  sched.run([&] { return fib(sched, 14); });
  const auto hw = sched.profile().hw;
  EXPECT_EQ(hw.status, "unavailable:EACCES");
  EXPECT_FALSE(hw.available);
  EXPECT_EQ(hw.cycles, 0u);
  EXPECT_EQ(hw.cache_misses, 0u);
  const std::string dump = sched.dump_worker_state();
  EXPECT_NE(dump.find("err=EACCES"), std::string::npos);
  fi::disable();
}

}  // namespace
}  // namespace lcws
