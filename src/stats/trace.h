#pragma once

// Per-worker event tracing (opt-in via LCWS_TRACE=<file>).
//
// Each worker owns a fixed-size power-of-two ring of 16-byte records.
// Emitting an event is a TLS load, a predicted-not-taken null check when
// tracing is off, and -- when on -- a clock read plus two relaxed stores
// into the single-writer ring.  No fences, no CAS, no allocation on the
// emit path, so tracing cannot perturb the fence/CAS accounting that the
// perf gate audits (tests/trace_test.cpp proves bit-equality).
//
// Signal-handler safety: the SIGUSR1 exposure trampoline emits into the
// same ring as the interrupted worker.  emit() reserves the slot index
// (plain head bump) *before* filling the slot, so a handler that lands
// mid-emit overwrites at most the one record that was being written; the
// ring never corrupts beyond losing that single record.  clock_gettime
// (behind monotonic_ns) and relaxed stores are async-signal-safe.
//
// On every top-level run() exit -- and again when the pool is destroyed --
// the rings are snapshotted and rewritten as Chrome trace-event JSON
// (load the file in chrome://tracing or https://ui.perfetto.dev).  Rings
// wrap silently; the writer reports per-worker dropped-event counts in
// the JSON's otherData block.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/timing.h"

namespace lcws::trace {

enum class event : std::uint8_t {
  run_begin = 1,
  run_end,
  task_begin,        // arg: 1 if the task was stolen, 0 if popped locally
  task_end,
  steal_attempt,     // arg: victim worker id
  steal_success,     // arg: victim worker id
  steal_loss,        // arg: victim worker id
  exposure_request,  // arg: victim worker id (emitted on the thief)
  exposure_answer,   // arg: own worker id (emitted on the victim)
  park_begin,
  park_end,
  unpark,            // arg: worker id being woken (emitted on the waker)
  deque_grow,        // arg: new capacity
  quiesce,           // arg: own worker id (cold-path reclaim quiesce only)
  hw_cycles,         // arg: cumulative cycles sampled on this worker
  hw_cache_misses,   // arg: cumulative cache misses sampled on this worker
  cancel,            // arg: 1 deadline/watchdog, 0 explicit cancel_run()
};

inline const char* to_string(event e) noexcept {
  switch (e) {
    case event::run_begin: return "run";
    case event::run_end: return "run_end";
    case event::task_begin: return "task";
    case event::task_end: return "task_end";
    case event::steal_attempt: return "steal_attempt";
    case event::steal_success: return "steal_success";
    case event::steal_loss: return "steal_loss";
    case event::exposure_request: return "exposure_request";
    case event::exposure_answer: return "exposure_answer";
    case event::park_begin: return "park";
    case event::park_end: return "park_end";
    case event::unpark: return "unpark";
    case event::deque_grow: return "deque_grow";
    case event::quiesce: return "quiesce";
    case event::hw_cycles: return "cycles";
    case event::hw_cache_misses: return "cache_misses";
    case event::cancel: return "cancel";
  }
  return "?";
}

// One ring slot: timestamp word + packed kind/arg word.  Both words are
// relaxed atomics so concurrent snapshot reads are race-free under TSan;
// a snapshot may observe a torn record (ts from one event, payload from
// another) only for the slot currently being overwritten, which the
// writer tolerates by dropping records whose ts is zero or out of range.
struct record {
  std::atomic<std::uint64_t> ts{0};    // monotonic_ns
  std::atomic<std::uint64_t> word{0};  // kind << 56 | arg
};

constexpr std::uint64_t kArgMask = (std::uint64_t{1} << 56) - 1;

inline std::uint64_t pack(event e, std::uint64_t arg) noexcept {
  return (static_cast<std::uint64_t>(e) << 56) | (arg & kArgMask);
}

class ring {
 public:
  explicit ring(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    buf_ = std::make_unique<record[]>(cap);
    mask_ = cap - 1;
  }

  ring(const ring&) = delete;
  ring& operator=(const ring&) = delete;

  // Single-writer (the owning worker thread, plus signal handlers running
  // on that same thread).  Reserve-then-fill: see file comment.
  void emit(event e, std::uint64_t arg = 0) noexcept {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    head_.store(i + 1, std::memory_order_relaxed);
    record& r = buf_[i & mask_];
    r.word.store(pack(e, arg), std::memory_order_relaxed);
    r.ts.store(lcws::monotonic_ns(), std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  // Total events ever emitted (monotonic; >= capacity() means the ring
  // has wrapped and oldest events were dropped).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = emitted();
    return n > capacity() ? n - capacity() : 0;
  }

  struct entry {
    std::uint64_t ts;
    event kind;
    std::uint64_t arg;
  };

  // Oldest-to-newest retained records.  Safe to call from any thread
  // while the owner keeps emitting; in-flight slots are skipped.
  std::vector<entry> snapshot() const {
    std::vector<entry> out;
    const std::uint64_t end = head_.load(std::memory_order_relaxed);
    const std::uint64_t n = end < capacity() ? end : capacity();
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = end - n; i < end; ++i) {
      const record& r = buf_[i & mask_];
      const std::uint64_t ts = r.ts.load(std::memory_order_relaxed);
      const std::uint64_t w = r.word.load(std::memory_order_relaxed);
      if (ts == 0 || w == 0) continue;  // slot mid-write
      out.push_back(entry{ts, static_cast<event>(w >> 56), w & kArgMask});
    }
    return out;
  }

 private:
  std::unique_ptr<record[]> buf_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

// TLS pointer to the calling worker's ring; null when tracing is off or
// the thread is not a registered worker.
inline thread_local ring* tl_ring = nullptr;

inline void set_local_ring(ring* r) noexcept { tl_ring = r; }
inline ring* local_ring() noexcept { return tl_ring; }

#ifdef LCWS_NO_STATS
inline void emit(event, std::uint64_t = 0) noexcept {}
#else
inline void emit(event e, std::uint64_t arg = 0) noexcept {
  ring* r = tl_ring;
  if (__builtin_expect(r != nullptr, 0)) r->emit(e, arg);
}
#endif

// Serializes multi-line diagnostic dumps (LCWS_DUMP_ON_EXIT, watchdog
// stall reports) across pools and threads so each worker's block comes
// out contiguous on stderr.
inline std::mutex& dump_mutex() {
  static std::mutex m;
  return m;
}

// Owns one ring per worker and knows how to serialize them.  Created
// disabled; the scheduler calls init() once it knows the worker count.
class tracer {
 public:
  tracer() = default;

  // One ring of `ring_capacity` records per worker, written to `path`;
  // an empty path leaves tracing off.
  void init(std::size_t workers, std::string path, std::size_t ring_capacity) {
    path_ = std::move(path);
    rings_.clear();
    if (path_.empty()) return;
    rings_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      rings_.push_back(std::make_unique<ring>(ring_capacity));
  }

  bool enabled() const noexcept { return !rings_.empty(); }
  std::size_t workers() const noexcept { return rings_.size(); }

  ring* worker_ring(std::size_t i) noexcept {
    return i < rings_.size() ? rings_[i].get() : nullptr;
  }
  const ring* worker_ring(std::size_t i) const noexcept {
    return i < rings_.size() ? rings_[i].get() : nullptr;
  }

  // Rewrites the whole trace file from current ring contents.  Called at
  // every top-level run() exit and from the pool destructor; last writer
  // wins, which is what you want for a file observed after the process
  // ends.  Failure to open the path is reported once on stderr.
  void write_chrome_json(const char* scheduler_name) const noexcept {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      if (!warned_.exchange(true, std::memory_order_relaxed))
        std::fprintf(stderr, "lcws: LCWS_TRACE: cannot open %s\n",
                     path_.c_str());
      return;
    }
    std::vector<std::vector<ring::entry>> snaps(rings_.size());
    std::uint64_t t0 = UINT64_MAX;
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      snaps[i] = rings_[i]->snapshot();
      if (!snaps[i].empty() && snaps[i].front().ts < t0)
        t0 = snaps[i].front().ts;
    }
    if (t0 == UINT64_MAX) t0 = 0;

    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (std::size_t w = 0; w < rings_.size(); ++w) {
      emit_meta(f, first, w, scheduler_name);
      for (const ring::entry& e : snaps[w]) emit_entry(f, first, w, e, t0);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    std::fprintf(f, "\"scheduler\":\"%s\",\"ring_capacity\":%zu",
                 scheduler_name ? scheduler_name : "?",
                 rings_.front()->capacity());
    std::fprintf(f, ",\"dropped_events\":[");
    for (std::size_t w = 0; w < rings_.size(); ++w)
      std::fprintf(f, "%s%llu", w ? "," : "",
                   static_cast<unsigned long long>(rings_[w]->dropped()));
    std::fprintf(f, "]}}\n");
    std::fclose(f);
  }

  // Human-readable tail of one worker's ring, for stall dumps.
  std::string tail_string(std::size_t worker, std::size_t max_events) const {
    const ring* r = worker_ring(worker);
    if (!r) return {};
    std::vector<ring::entry> snap = r->snapshot();
    const std::size_t start =
        snap.size() > max_events ? snap.size() - max_events : 0;
    std::string out;
    char line[128];
    for (std::size_t i = start; i < snap.size(); ++i) {
      const ring::entry& e = snap[i];
      std::snprintf(line, sizeof line, "      t=%llu.%03llums %s v=%llu\n",
                    static_cast<unsigned long long>(e.ts / 1000000),
                    static_cast<unsigned long long>((e.ts / 1000) % 1000),
                    to_string(e.kind), static_cast<unsigned long long>(e.arg));
      out += line;
    }
    return out;
  }

 private:
  static bool is_begin(event e) noexcept {
    return e == event::run_begin || e == event::task_begin ||
           e == event::park_begin;
  }
  static bool is_end(event e) noexcept {
    return e == event::run_end || e == event::task_end ||
           e == event::park_end;
  }
  static bool is_counter(event e) noexcept {
    return e == event::hw_cycles || e == event::hw_cache_misses;
  }

  static void emit_meta(std::FILE* f, bool& first, std::size_t w,
                        const char* sched) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"lcws-%s\"}}",
                 first ? "" : ",\n", w, sched ? sched : "?");
    first = false;
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"worker %zu\"}}",
                 w, w);
  }

  static void emit_entry(std::FILE* f, bool& first, std::size_t w,
                         const ring::entry& e, std::uint64_t t0) {
    const double ts_us = static_cast<double>(e.ts - t0) / 1000.0;
    const char* sep = first ? "" : ",\n";
    first = false;
    const unsigned long long arg = static_cast<unsigned long long>(e.arg);
    if (is_counter(e.kind)) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"args\":{\"value\":%llu}}",
                   sep, to_string(e.kind), w, ts_us, arg);
    } else if (is_begin(e.kind)) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"B\","
                   "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,\"args\":{\"v\":%llu}}",
                   sep, to_string(e.kind), w, ts_us, arg);
    } else if (is_end(e.kind)) {
      // Chrome pairs E with the innermost open B on the same tid by name
      // ordering; we emit the matching begin name so flame slices close.
      const char* name = e.kind == event::run_end     ? "run"
                         : e.kind == event::task_end  ? "task"
                                                      : "park";
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"E\","
                   "\"pid\":0,\"tid\":%zu,\"ts\":%.3f}",
                   sep, name, w, ts_us);
    } else {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\","
                   "\"s\":\"t\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                   "\"args\":{\"v\":%llu}}",
                   sep, to_string(e.kind), w, ts_us, arg);
    }
  }

  std::string path_;
  std::vector<std::unique_ptr<ring>> rings_;
  mutable std::atomic<bool> warned_{false};
};

}  // namespace lcws::trace
