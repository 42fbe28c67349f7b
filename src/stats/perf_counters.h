#pragma once

// Per-worker hardware counters via perf_event_open.
//
// Each worker opens one counter group on its own thread (pid=0, cpu=-1):
// cycles (leader), instructions, cache-references, cache-misses, plus a
// separate task-clock software event.  Groups are read with
// PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING and scaled
// for multiplexing.  Reads happen only at cold boundaries (worker
// start/stop, park entry, run exit) -- never per task or per steal.
//
// Availability is tiered, and unavailability is first-class: the
// committed perf-gate baselines were produced in a container where
// perf_event_paranoid forbids the syscall entirely, so every consumer
// must handle status() != "available" without treating zeros as data.
//   1. full group (cycles, instructions, cache refs, cache misses)
//   2. cycles + instructions only ("partial:no-cache-counters")
//   3. nothing ("unavailable:<errno name>")
// The task-clock event is software-only and usually survives even when
// the PMU is denied; its validity is tracked separately.
//
// LCWS_PERF=0 (pool_config::perf) disables the whole subsystem; the
// perf_open fault-injection site forces the failure path for tests.

#include <cstdint>
#include <string>

namespace lcws::stats {

struct hw_values {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t task_clock_ns = 0;
  bool cpu_valid = false;    // cycles / instructions are real
  bool cache_valid = false;  // cache_references / cache_misses are real
  bool clock_valid = false;  // task_clock_ns is real
  bool any() const noexcept { return cpu_valid || cache_valid || clock_valid; }
};

class perf_group {
 public:
  perf_group() = default;
  ~perf_group() { close(); }
  perf_group(const perf_group&) = delete;
  perf_group& operator=(const perf_group&) = delete;

  // Opens the counters on the *calling* thread; must run on the worker
  // whose activity is to be measured.  force_errno != 0 simulates an
  // open failure with that errno (test hook; also fails the task-clock
  // event so the fallback is total).  Returns true if anything opened.
  bool open(int force_errno = 0);

  void close() noexcept;

  bool is_open() const noexcept { return group_fd_ >= 0 || clock_fd_ >= 0; }

  // errno from the hardware-group open failure; 0 when the group opened.
  int error() const noexcept { return error_; }

  // "available" | "partial:no-cache-counters" | "unavailable:EACCES" | ...
  std::string status() const;

  // Cumulative, multiplex-scaled readings since open().
  hw_values read() const noexcept;

 private:
  int group_fd_ = -1;   // leader fd (cycles); members read via group format
  int nevents_ = 0;     // 2 or 4 hardware events in the group
  int clock_fd_ = -1;   // task-clock software event
  int error_ = 0;
};

// "EACCES", "ENOENT", ... or "errno-N" for names we don't know.
const char* errno_name(int e) noexcept;

}  // namespace lcws::stats
