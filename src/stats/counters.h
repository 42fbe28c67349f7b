// Synchronization-operation instrumentation.
//
// The LCWS paper's profiles (Figs 3 and 8) compare, between schedulers, the
// number of memory fences, CAS instructions, steal attempts/successes and
// the amount of exposed-but-not-stolen work. Every deque and scheduler in
// this library reports those events here.
//
// Counting must not perturb what it measures: each worker increments a
// plain (non-atomic) cache-line-private block through a thread-local
// pointer; aggregation only happens when a harness asks for totals.
// Define LCWS_NO_STATS to compile the counting away entirely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/align.h"

namespace lcws::stats {

// Number of steal-locality tiers; mirrors lcws::kNumLocalityTiers
// (support/topology.h) without making the counter block depend on the
// topology header.
inline constexpr std::size_t kStealTierCount = 5;

// A single-writer event counter. Only the owning thread (including its
// signal handlers, which never interleave with its own increments mid-
// instruction) writes; harnesses read concurrently while monitoring. The
// load+store increment compiles to a plain `inc` — no RMW — yet every
// access is a relaxed atomic, so cross-thread profile reads are formally
// race-free (monitoring reads may lag by an increment; aggregation while
// quiescent is exact).
class relaxed_counter {
 public:
  relaxed_counter() = default;
  relaxed_counter(std::uint64_t v) noexcept : value_(v) {}  // NOLINT: implicit
  relaxed_counter(const relaxed_counter& other) noexcept : value_(other.get()) {}
  relaxed_counter& operator=(const relaxed_counter& other) noexcept {
    value_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }
  relaxed_counter& operator=(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }

  std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return get(); }  // NOLINT

  // Single-writer increment: load+store, not an atomic RMW.
  relaxed_counter& operator+=(std::uint64_t n) noexcept {
    value_.store(get() + n, std::memory_order_relaxed);
    return *this;
  }
  relaxed_counter& operator++() noexcept { return *this += 1; }
  relaxed_counter& operator-=(std::uint64_t n) noexcept {
    value_.store(get() - n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// One worker's event counts. Single-writer (the owning thread; signal
// handlers run on the owning thread too).
struct op_counters {
  relaxed_counter fences;          // atomic_thread_fence(seq_cst) executed
  relaxed_counter cas;             // compare_exchange executed
  relaxed_counter cas_failed;      // ... of which failed
  relaxed_counter pushes;          // push_bottom
  relaxed_counter pops_private;    // successful pop_bottom
  relaxed_counter pops_public;     // successful pop_public_bottom (owner
                                   // re-took work it had exposed)
  relaxed_counter steal_attempts;  // pop_top calls by thieves
  relaxed_counter steals;          // ... of which returned a task
  relaxed_counter steal_aborts;    // ... of which lost the CAS race
  // Multiplicity accounting (wsmult only, DESIGN.md §9). The fence-free
  // deque may extract one index twice; the claim word arbitrates, so
  //   steals == useful_steals + claims_lost
  // holds for thief-side extraction, and dup_extractions counts every
  // arbitration that saw an already-claimed slot (owner or thief side).
  relaxed_counter useful_steals;   // steals whose claim exchange won
  relaxed_counter claims_lost;     // steals whose claim exchange lost
  relaxed_counter dup_extractions; // claim arbitrations (any side) that
                                   // found the slot already claimed
  // Locality split of steals that took a task (DESIGN.md §7). Maintained
  // only while the locality layer is on; there the accounting identity
  //   steals - claims_lost == steals_near + steals_remote
  //                        == sum(steals_by_tier)
  // holds for every kind: a wsmult steal whose claim exchange lost took
  // nothing and is never classified, and claims_lost is 0 elsewhere.
  // With LCWS_LOCALITY_OFF all of these stay zero.
  relaxed_counter steals_near;     // victim shared a cache (smt/core/llc)
  relaxed_counter steals_remote;   // victim across an LLC/socket/NUMA edge
  relaxed_counter steals_by_tier[kStealTierCount];  // indexed by
                                                    // locality_tier
  relaxed_counter locality_explores;  // uniform exploration picks (every
                                      // 16th victim choice)
  relaxed_counter private_work_seen;  // pop_top returned PRIVATE_WORK
  relaxed_counter exposures;       // update_public_bottom transfers
                                   // (tasks moved private -> public)
  relaxed_counter exposure_requests;  // targeted flag flips false->true
  relaxed_counter unexposures;     // tasks reclaimed public -> private
                                   // (Lace-style schedulers only)
  relaxed_counter signals_sent;    // pthread_kill(SIGUSR1) system calls
  relaxed_counter signals_failed;  // exposure sends that failed delivery
                                   // (ESRCH, or every attempt of the fixed
                                   // retry budget); signal family:
                                   // exposure_requests == signals_sent
                                   //   + signals_failed
  relaxed_counter deque_grows;     // slow-path deque growth events (the
                                   // owner doubled its slot storage)
  relaxed_counter deque_hwm;       // max outstanding tasks observed in this
                                   // worker's deque (high-water mark, NOT a
                                   // sum: += takes the max, - keeps a's)
  relaxed_counter tasks_executed;  // jobs actually run by this worker
  relaxed_counter idle_loops;      // scheduling-loop iterations w/o a task
  relaxed_counter parks;           // park episodes (worker blocked idle)
  relaxed_counter wakes;           // unpark permits issued by this worker
  relaxed_counter idle_ns;         // nanoseconds spent parked
  relaxed_counter runs_cancelled;  // cancel_run() edges (token false->true)

  op_counters& operator+=(const op_counters& other) noexcept;
  friend op_counters operator-(op_counters a, const op_counters& b) noexcept;
};

// Pool-wide hardware-counter totals (src/stats/perf_counters.{h,cpp}).
// `available` means at least one worker produced a real reading;
// `status` is never empty -- when the kernel denies perf_event_open the
// marker names the errno ("unavailable:EACCES") instead of leaving
// zeros that look like data.
struct hw_profile {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t task_clock_ns = 0;
  bool available = false;
  std::string status = "unavailable:off";

  double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  double cache_miss_rate() const noexcept {
    return cache_references == 0 ? 0.0
                                 : static_cast<double>(cache_misses) /
                                       static_cast<double>(cache_references);
  }
};

// Totals with the derived quantities the paper plots.
struct profile {
  op_counters totals;
  hw_profile hw;

  // Exposed tasks that were *not* stolen end up re-taken by their owner via
  // pop_public_bottom; Fig 3d / Fig 8d plot this fraction.
  double exposed_not_stolen_fraction() const noexcept {
    return totals.exposures == 0
               ? 0.0
               : static_cast<double>(totals.pops_public) /
                     static_cast<double>(totals.exposures);
  }
  double steal_success_rate() const noexcept {
    return totals.steal_attempts == 0
               ? 0.0
               : static_cast<double>(totals.steals) /
                     static_cast<double>(totals.steal_attempts);
  }
  // Fraction of successful steals that stayed within a cache domain
  // (bench/locality's headline metric). 0 when the locality layer is off.
  double near_steal_fraction() const noexcept {
    const std::uint64_t classified =
        totals.steals_near + totals.steals_remote;
    return classified == 0 ? 0.0
                           : static_cast<double>(totals.steals_near) /
                                 static_cast<double>(classified);
  }
};

// ---- per-thread counting interface --------------------------------------

namespace detail {
inline thread_local op_counters tl_fallback;
inline thread_local op_counters* tl_active = nullptr;
}  // namespace detail

// Returns the calling thread's active counter block. Worker pools point
// this at a pool-owned, cache-aligned per-worker block for the duration of
// a run; other threads fall back to a thread_local block. Defined here so
// each count_* on the fork path is a TLS load, not a call.
inline op_counters& local_counters() noexcept {
  return detail::tl_active != nullptr ? *detail::tl_active
                                      : detail::tl_fallback;
}

// Redirects this thread's counting to `block` (nullptr restores the
// thread_local fallback). Used by worker pools.
inline void set_local_counters(op_counters* block) noexcept {
  detail::tl_active = block;
}

#ifdef LCWS_NO_STATS
inline void count_fence() noexcept {}
inline void count_cas(bool /*success*/) noexcept {}
inline void count_push() noexcept {}
inline void count_pop_private() noexcept {}
inline void count_pop_public() noexcept {}
inline void count_steal_attempt() noexcept {}
inline void count_steal_success() noexcept {}
inline void count_steal_abort() noexcept {}
inline void count_useful_steal() noexcept {}
inline void count_claim_lost() noexcept {}
inline void count_dup_extraction() noexcept {}
inline void count_locality_steal(std::size_t tier, bool near) noexcept {
  (void)tier;
  (void)near;
}
inline void count_locality_explore() noexcept {}
inline void count_private_work_seen() noexcept {}
inline void count_exposure(std::uint64_t n = 1) noexcept { (void)n; }
inline void count_exposure_request() noexcept {}
inline void count_unexposure(std::uint64_t n = 1) noexcept { (void)n; }
inline void count_signal_sent() noexcept {}
inline void count_signal_failed() noexcept {}
inline void count_deque_grow() noexcept {}
inline void count_deque_hwm(std::uint64_t size) noexcept { (void)size; }
inline void count_task_executed() noexcept {}
inline void count_idle_loop() noexcept {}
inline void count_park() noexcept {}
inline void count_wake(std::uint64_t n = 1) noexcept { (void)n; }
inline void count_idle_ns(std::uint64_t ns) noexcept { (void)ns; }
#else
inline void count_fence() noexcept { ++local_counters().fences; }
inline void count_cas(bool success) noexcept {
  auto& c = local_counters();
  ++c.cas;
  if (!success) ++c.cas_failed;
}
inline void count_push() noexcept { ++local_counters().pushes; }
inline void count_pop_private() noexcept { ++local_counters().pops_private; }
inline void count_pop_public() noexcept { ++local_counters().pops_public; }
inline void count_steal_attempt() noexcept {
  ++local_counters().steal_attempts;
}
inline void count_steal_success() noexcept { ++local_counters().steals; }
inline void count_steal_abort() noexcept { ++local_counters().steal_aborts; }
inline void count_useful_steal() noexcept {
  ++local_counters().useful_steals;
}
inline void count_claim_lost() noexcept { ++local_counters().claims_lost; }
inline void count_dup_extraction() noexcept {
  ++local_counters().dup_extractions;
}
// One successful steal classified by the victim's distance tier; `near`
// is tier <= llc (the thief shares a cache with the victim).
inline void count_locality_steal(std::size_t tier, bool near) noexcept {
  auto& c = local_counters();
  if (tier < kStealTierCount) ++c.steals_by_tier[tier];
  if (near) {
    ++c.steals_near;
  } else {
    ++c.steals_remote;
  }
}
inline void count_locality_explore() noexcept {
  ++local_counters().locality_explores;
}
inline void count_private_work_seen() noexcept {
  ++local_counters().private_work_seen;
}
inline void count_exposure(std::uint64_t n = 1) noexcept {
  local_counters().exposures += n;
}
inline void count_exposure_request() noexcept {
  ++local_counters().exposure_requests;
}
inline void count_unexposure(std::uint64_t n = 1) noexcept {
  local_counters().unexposures += n;
}
inline void count_signal_sent() noexcept { ++local_counters().signals_sent; }
inline void count_signal_failed() noexcept {
  ++local_counters().signals_failed;
}
inline void count_deque_grow() noexcept { ++local_counters().deque_grows; }
// Max-update: records the largest deque size this worker ever held.
inline void count_deque_hwm(std::uint64_t size) noexcept {
  auto& c = local_counters().deque_hwm;
  if (size > c.get()) c = size;
}
inline void count_task_executed() noexcept {
  ++local_counters().tasks_executed;
}
inline void count_idle_loop() noexcept { ++local_counters().idle_loops; }
inline void count_park() noexcept { ++local_counters().parks; }
inline void count_wake(std::uint64_t n = 1) noexcept {
  local_counters().wakes += n;
}
inline void count_idle_ns(std::uint64_t ns) noexcept {
  local_counters().idle_ns += ns;
}
#endif

// ---- aggregation ---------------------------------------------------------

// Sums a set of per-worker blocks into a profile.
profile aggregate(const std::vector<cache_aligned<op_counters>>& blocks);

// Multi-line human-readable rendering.
std::string format_profile(const profile& p);

}  // namespace lcws::stats
