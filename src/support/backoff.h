// Exponential backoff for contended spin loops.
//
// On the oversubscribed configurations the paper cares about (more workers
// than cores) a thief that spins without yielding starves the very victim it
// is waiting on, so the backoff escalates from pause instructions to
// yield().
#pragma once

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace lcws {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // Fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

class backoff {
 public:
  // spins_before_yield: number of escalation steps taken before switching
  // from pause loops to thread yields.
  explicit backoff(std::uint32_t spins_before_yield = 10) noexcept
      : yield_threshold_(spins_before_yield) {}

  void pause() noexcept {
    if (step_ < yield_threshold_) {
      for (std::uint32_t i = 0; i < (1u << step_); ++i) cpu_relax();
      ++step_;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { step_ = 0; }

  std::uint32_t step() const noexcept { return step_; }

 private:
  std::uint32_t step_ = 0;
  std::uint32_t yield_threshold_;
};

}  // namespace lcws
