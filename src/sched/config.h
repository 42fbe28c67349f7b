// Every runtime setting of a pool, in one struct (DESIGN.md §12).
//
// A scheduler takes its worker count and a pool_config. The default,
// from_env(), reads the seven LCWS_* variables afresh for every pool and
// holds the library's only getenv calls. deque_capacity, parking and
// locality have no variable: tests and same-run A/B benches set them.
#pragma once

#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "deque/deque_common.h"
#include "support/topology.h"

namespace lcws {

struct pool_config {
  std::size_t deque_capacity = default_deque_capacity;  // doubles when full
  bool parking = true;                       // idle workers park (§1)
  bool locality = true;                      // §7 victim choice, pinning
  pin_mode pin = pin_mode::scatter;          // LCWS_PIN
  std::chrono::milliseconds watchdog{0};     // LCWS_WATCHDOG_MS; 0 = off
  std::chrono::milliseconds run_timeout{0};  // LCWS_RUN_TIMEOUT_MS; 0 = off
  // LCWS_DUMP_ON_EXIT: dump at destruction to stderr ("1" or "stderr") or
  // appended to this path; empty = off.
  std::string dump_on_exit{};
  std::string trace{};            // LCWS_TRACE: Chrome trace file
  std::size_t trace_ring = 4096;  // LCWS_TRACE_RING: records per worker
  bool perf = true;               // LCWS_PERF: "0" or "off" disables

  // 16 MiB of 16-byte trace records per worker.
  static constexpr std::size_t kMaxTraceRing = std::size_t{1} << 20;

  static pool_config from_env() {
    pool_config c;
    if (const char* s = std::getenv("LCWS_PIN")) {
      if (std::strcmp(s, "compact") == 0) c.pin = pin_mode::compact;
      if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) {
        c.pin = pin_mode::off;
      }
    }
    c.watchdog = std::chrono::milliseconds(
        decimal("LCWS_WATCHDOG_MS", 0, 0, INT64_MAX));
    c.run_timeout = std::chrono::milliseconds(
        decimal("LCWS_RUN_TIMEOUT_MS", 0, 0, INT64_MAX));
    if (const char* s = std::getenv("LCWS_DUMP_ON_EXIT")) c.dump_on_exit = s;
    if (const char* s = std::getenv("LCWS_TRACE")) c.trace = s;
    c.trace_ring = static_cast<std::size_t>(
        decimal("LCWS_TRACE_RING", 4096, 8, kMaxTraceRing));
    if (const char* s = std::getenv("LCWS_PERF")) {
      c.perf = std::strcmp(s, "0") != 0 && std::strcmp(s, "off") != 0;
    }
    return c;
  }

 private:
  // The one integer rule: the whole value is a decimal number in
  // [lo, hi]. Anything else (unset, empty, negative, trailing characters,
  // out of range) keeps `fallback`.
  static std::int64_t decimal(const char* name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) {
    const char* s = std::getenv(name);
    if (s == nullptr) return fallback;
    const char* end = s + std::strlen(s);
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) return fallback;
    return v;
  }
};

}  // namespace lcws
