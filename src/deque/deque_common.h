// Shared vocabulary for the work-stealing deques.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lcws {

// Forward-declared so non-growing deques (private_deque) can share the
// uniform constructor signature without pulling in reclaim.h.
class reclaim_domain;

// Default backpressure threshold (tasks outstanding in one worker's deque)
// past which the scheduler serializes spawns instead of growing further.
inline constexpr std::size_t default_deque_soft_cap = std::size_t{1} << 20;

// Growth policy, read from the environment at construction time (the same
// pattern as the locality knobs):
//   LCWS_DEQUE_FIXED=1      restore the legacy bounded behaviour: a push
//                           past capacity throws deque_overflow_error and
//                           the deque never grows or reallocates.
//   LCWS_DEQUE_SOFT_CAP=<n> scheduler-level high-water mark: past n
//                           outstanding tasks the owner executes spawns
//                           inline (serialization as graceful degradation)
//                           instead of pushing. 0 disables the cap.
struct deque_growth {
  bool fixed = false;
  std::size_t soft_cap = default_deque_soft_cap;

  static deque_growth from_env() noexcept {
    deque_growth g;
    const char* f = std::getenv("LCWS_DEQUE_FIXED");
    g.fixed = f != nullptr && f[0] != '\0' &&
              !(f[0] == '0' && f[1] == '\0');
    if (const char* s = std::getenv("LCWS_DEQUE_SOFT_CAP")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(s, &end, 10);
      if (end != s && *end == '\0') g.soft_cap = static_cast<std::size_t>(v);
    }
    return g;
  }
};

// Thrown on a push past capacity in fixed-capacity mode (LCWS_DEQUE_FIXED;
// growth-enabled deques grow instead of throwing). This is a detectable,
// recoverable error (it propagates through pardo's exception path to the
// spawn site) rather than silent corruption or an abort: the computation's
// outstanding jobs still drain, and the caller can retry with growth
// enabled or a larger deque_capacity. The message reports the active
// backpressure policy alongside the raw capacity.
class deque_overflow_error : public std::length_error {
 public:
  deque_overflow_error(const char* which, std::size_t capacity,
                       std::size_t soft_cap = 0)
      : std::length_error(
            std::string("lcws: ") + which + " capacity exhausted (" +
            std::to_string(capacity) +
            " slots) in fixed-capacity mode (LCWS_DEQUE_FIXED); " +
            (soft_cap == 0
                 ? std::string("no spawn soft cap was active")
                 : "the LCWS_DEQUE_SOFT_CAP=" + std::to_string(soft_cap) +
                       " backpressure threshold applies only when growth "
                       "is enabled") +
            ". Unset LCWS_DEQUE_FIXED to let the deque grow, or construct "
            "the scheduler with a larger deque_capacity") {}
};

// Bounded busy-wait used by the deque_grow fault-injection site to widen
// the thief-versus-growth race window (test builds only; the call site
// folds away without LCWS_FAULT_INJECTION).
inline void grow_race_pause() noexcept {
  volatile int sink = 0;
  for (int i = 0; i < 20000; ++i) sink = sink + 1;
}

// Outcome of a thief-side pop_top.
enum class steal_status : std::uint8_t {
  stolen,        // a task was taken; pointer is valid
  empty,         // the whole deque (public and private) was empty
  aborted,       // lost a CAS race with another thief / the owner
  private_work,  // public part empty but private work exists (split deques
                 // only) — the thief should request exposure
};

template <typename T>
struct steal_result {
  steal_status status;
  T* task;  // non-null iff status == stolen
};

// The age word of ABP-style deques: a 32-bit top index plus a 32-bit tag
// that changes on every deque reset, preventing the ABA problem on the
// top-side CAS.
struct age_t {
  std::uint32_t tag;
  std::uint32_t top;

  friend bool operator==(const age_t&, const age_t&) = default;
};

constexpr std::uint64_t pack_age(age_t a) noexcept {
  return (static_cast<std::uint64_t>(a.tag) << 32) | a.top;
}

constexpr age_t unpack_age(std::uint64_t word) noexcept {
  return age_t{static_cast<std::uint32_t>(word >> 32),
               static_cast<std::uint32_t>(word)};
}

// Default per-worker deque capacity. Fork–join recursion depth is
// logarithmic in problem size, but help-first joins can stack helped tasks'
// frames, so we leave generous headroom; overflow is detected and throws
// deque_overflow_error.
inline constexpr std::size_t default_deque_capacity = std::size_t{1} << 16;

}  // namespace lcws
