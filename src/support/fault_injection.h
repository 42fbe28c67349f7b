// Deterministic fault injection for the scheduler's rare paths.
//
// The protocols this library reproduces are correct only across
// interleavings that almost never happen on a healthy machine: a steal CAS
// that loses, an exposure signal that the kernel drops or delays, a
// pthread_kill that fails, a condition variable that wakes spuriously.
// This hook layer makes those events *forceable and repeatable* so tests
// can sweep them instead of hoping a stress run stumbles into them.
//
// Design:
//   * Zero-cost unless compiled in. Without LCWS_FAULT_INJECTION every
//     entry point is a constexpr no-op (`inject` returns a compile-time
//     false), so the `if (fi::inject(...))` guards at the named sites fold
//     away entirely — the production library carries no branches, no
//     globals, no symbols.
//   * Deterministic per (seed, worker). Each thread draws from a private
//     splitmix64 stream seeded from the configured seed mixed with its
//     worker id, so a given seed produces the same per-worker fault
//     schedule run over run (modulo OS interleaving, which the faults
//     themselves perturb — that is the point).
//   * Async-signal-safe. `inject` is called from the SIGUSR1 exposure
//     handler (drop/delay sites), so it touches only lock-free atomics and
//     this thread's own TLS: no locks, no allocation, no errno.
//
// Named sites (where the guards live):
//   steal_cas      scheduler.h   deque_steal/mailbox_steal: the attempt
//                                fails as if it lost the CAS race
//   exposure_drop  signal_support.cpp  handler returns without exposing
//                                      (models a lost/ignored signal)
//   exposure_delay signal_support.cpp  handler spins before exposing
//                                      (widens the §4 pop/expose race)
//   signal_send    signal_support.cpp  pthread_kill reports failure
//   spurious_wake  parking_lot.h  park() returns immediately, permitless,
//                                 as if the OS woke the cv spuriously
//   deque_grow     deque_storage::grow() (reclaim.h; the split, abp and
//                  wsmult deques): the owner stalls between copying slots
//                  and publishing the new buffer, widening the
//                  thief-versus-growth race the reclamation scheme must
//                  survive
//   wsmult_dup     wsmult_deque take/steal: the extractor stalls between
//                  reading the task pointer and writing its index
//                  advancement, widening the multiplicity window so
//                  duplicate extractions (normally vanishingly rare)
//                  actually happen and the claim words must resolve them
#pragma once

#include <cstdint>

namespace lcws::fi {

enum class site : unsigned {
  steal_cas = 0,
  exposure_drop,
  exposure_delay,
  signal_send,
  spurious_wake,
  deque_grow,
  wsmult_dup,
  num_sites,  // sentinel
};

inline constexpr unsigned num_sites = static_cast<unsigned>(site::num_sites);

// Bitmask helpers for configure()'s site_mask.
constexpr std::uint32_t site_bit(site s) noexcept {
  return std::uint32_t{1} << static_cast<unsigned>(s);
}
inline constexpr std::uint32_t all_sites = (std::uint32_t{1} << num_sites) - 1;

#ifdef LCWS_FAULT_INJECTION

// Whether this binary was built with the hooks compiled in.
constexpr bool compiled_in() noexcept { return true; }

// Arms the hooks: every site in `site_mask` fires with probability
// rate_permille/1000 per visit, on a per-thread stream derived from `seed`.
// Safe to call between runs; not while a computation is in flight.
void configure(std::uint64_t seed, std::uint32_t rate_permille,
               std::uint32_t site_mask = all_sites) noexcept;

// Disarms all sites (every inject() returns false until reconfigured).
void disable() noexcept;

// True between configure() and disable().
bool armed() noexcept;

// The decision point, called at each named site. True => inject the fault.
bool inject(site s) noexcept;

// Number of faults actually injected at `s` since the last configure().
std::uint64_t injected_count(site s) noexcept;

#else  // !LCWS_FAULT_INJECTION — everything folds to nothing.

constexpr bool compiled_in() noexcept { return false; }
inline void configure(std::uint64_t, std::uint32_t,
                      std::uint32_t = all_sites) noexcept {}
inline void disable() noexcept {}
constexpr bool armed() noexcept { return false; }
constexpr bool inject(site) noexcept { return false; }
constexpr std::uint64_t injected_count(site) noexcept { return 0; }

#endif

}  // namespace lcws::fi
