// Monotonic wall-clock timing helpers for the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace lcws {

// A simple start/elapsed stopwatch over steady_clock.
class stopwatch {
 public:
  stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  std::uint64_t elapsed_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Monotonic now() in nanoseconds, for code that timestamps events (the
// trace rings) rather than measuring an interval.
inline std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Times a callable, returning seconds.
template <typename F>
double time_seconds(F&& f) {
  stopwatch sw;
  f();
  return sw.elapsed_seconds();
}

}  // namespace lcws
