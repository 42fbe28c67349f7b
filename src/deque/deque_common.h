// Shared vocabulary for the work-stealing deques.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lcws {

// Forward-declared so non-growing deques (private_deque) can share the
// uniform constructor signature without pulling in reclaim.h.
class reclaim_domain;

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

// Default starting capacity of each worker's deque. Fork–join recursion
// depth is logarithmic in problem size, so this many slots suffice for
// ordinary computations; a deeper deque doubles its storage (DESIGN.md §8).
inline constexpr std::size_t default_deque_capacity = std::size_t{1} << 16;

}  // namespace lcws
