// Runtime health monitoring for graceful degradation (DESIGN.md §6).
//
// The Signal schedulers (Section 4 of the paper) depend on timely POSIX
// signal delivery — exactly what the kernel does not guarantee under the
// multiprogrammed co-run regime the paper evaluates in §5. This monitor
// gives the scheduler eyes: per-victim evidence about signal delivery
// (send failures, exposure round-trip latency) drives a small hysteresis
// state machine (healthy -> degraded -> healthy), and per-worker
// preemption sampling (getrusage involuntary context switches, steal-
// success EWMA) reports oversubscription pressure that the idle paths use
// to yield and park earlier.
//
// Cost contract: when degradation is disabled (LCWS_DEGRADE_OFF=1) the
// scheduler consults only `enabled()` — a plain bool — and the protocol
// hot paths are bit-for-bit the legacy ones: no new fences, no new CAS.
// When enabled, the healthy-path overhead is one extra relaxed load per
// exposure request / local pop; all bookkeeping writes live on the slow
// paths (failed sends, RTT resolution, idle sampling).
//
// Concurrency: each victim has one cache-aligned slot. Evidence fields are
// relaxed atomics updated by whichever thief observed the outcome — lost
// updates under write races only delay a transition by an observation,
// which hysteresis absorbs anyway. State transitions go through
// compare_exchange so exactly one thief wins a trip/restore and reports it
// (the scheduler counts degrade_events/recover_events off that return).
// `note_handler_ran` is called from the SIGUSR1 handler: a single relaxed
// load+store on the handler thread's own slot — async-signal-safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/trace.h"
#include "support/align.h"

namespace lcws::health {

// Tunables, resolved once per monitor from LCWS_DEGRADE_* (see from_env).
struct config {
  // Master switch: false compiles the monitor down to `enabled()` checks.
  bool enabled = true;
  // Trip when this many consecutive sends to one victim fail outright...
  std::uint32_t fail_streak = 4;
  // ...or when the failure EWMA crosses fail_permille after at least
  // min_window observations (send outcomes + RTT resolutions).
  std::uint32_t fail_permille = 500;
  std::uint32_t min_window = 8;
  // While degraded, every probe_period-th exposure request for the victim
  // is sent down the signal path as a probe.
  std::uint32_t probe_period = 8;
  // Restore after this many consecutive successful probes.
  std::uint32_t recover_streak = 3;
  // An armed exposure request whose handler has not run after this long
  // counts as timed-out evidence (EWMA only — oversubscription makes slow
  // delivery legitimate, so timeouts never feed the hard streak).
  std::uint64_t rtt_deadline_ns = 100ull * 1000 * 1000;  // 100ms
  // Pressure: involuntary context switches per second above this rate.
  std::uint64_t csw_per_sec = 200;
  // Pressure corroboration: steal-success EWMA at or below this permille
  // counts as futile stealing (combined with a quarter of the csw rate).
  std::uint32_t futile_steal_permille = 10;
  // Preemption is sampled (getrusage) at most once per this interval.
  std::uint64_t sample_period_ns = 10ull * 1000 * 1000;  // 10ms
  // Oversubscription-aware stealing: at most steal_budget failed attempts
  // per budget_window before the idle loop escalates to sched_yield.
  std::uint32_t steal_budget = 64;
  std::uint64_t budget_window_ns = 1ull * 1000 * 1000;  // 1ms

  // Reads LCWS_DEGRADE_OFF, LCWS_DEGRADE_FAIL_STREAK,
  // LCWS_DEGRADE_FAIL_PCT (percent, converted to permille),
  // LCWS_DEGRADE_MIN_WINDOW, LCWS_DEGRADE_PROBE_PERIOD,
  // LCWS_DEGRADE_RECOVER, LCWS_DEGRADE_RTT_US, LCWS_DEGRADE_CSW_PER_SEC,
  // LCWS_DEGRADE_STEAL_BUDGET, LCWS_DEGRADE_BUDGET_WINDOW_US.
  static config from_env() noexcept;
};

// Outcome of an evidence update: `degraded`/`recovered` is returned to
// exactly one caller per transition, so that caller can count the event.
enum class transition : unsigned char { none, degraded, recovered };

class monitor {
 public:
  monitor(std::size_t num_workers, const config& cfg)
      : cfg_(cfg), slots_(num_workers) {}

  monitor(const monitor&) = delete;
  monitor& operator=(const monitor&) = delete;

  const config& cfg() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled; }

  // ---- signal-path state machine (per victim) ----------------------------

  // One relaxed load; the scheduler's only healthy-hot-path query.
  bool is_degraded(std::size_t victim) const noexcept {
    return slots_[victim]->degraded.load(std::memory_order_relaxed);
  }

  // A send to `victim` succeeded. `attempts` > 1 means the internal retry
  // budget was consumed — weak evidence that delivery is struggling.
  void note_send_ok(std::size_t victim, int attempts = 1) noexcept {
    auto& s = slots_[victim].get();
    s.fail_streak.store(0, std::memory_order_relaxed);
    observe(s, attempts > 1 ? 400u : 0u);
  }

  // A send to `victim` failed past its retry budget. Returns `degraded`
  // to the single caller whose evidence tripped the state machine.
  transition note_send_failure(std::size_t victim) noexcept {
    auto& s = slots_[victim].get();
    const std::uint32_t streak =
        s.fail_streak.load(std::memory_order_relaxed) + 1;
    s.fail_streak.store(streak, std::memory_order_relaxed);
    observe(s, 1000u);
    if (streak >= cfg_.fail_streak || ewma_tripped(s)) {
      return trip(victim, s);
    }
    return transition::none;
  }

  // ---- probing / recovery -------------------------------------------------

  // While degraded: should this exposure request probe the signal path
  // (true every probe_period-th call) instead of going user-space?
  bool should_probe(std::size_t victim) noexcept {
    auto& s = slots_[victim].get();
    const std::uint32_t n =
        s.fallbacks_since_probe.load(std::memory_order_relaxed) + 1;
    if (n >= cfg_.probe_period) {
      s.fallbacks_since_probe.store(0, std::memory_order_relaxed);
      return true;
    }
    s.fallbacks_since_probe.store(n, std::memory_order_relaxed);
    return false;
  }

  // A probe send succeeded / failed. Enough consecutive successes restore
  // the signal path; the restoring caller sees `recovered`.
  transition note_probe_ok(std::size_t victim) noexcept {
    auto& s = slots_[victim].get();
    const std::uint32_t ok = s.ok_streak.load(std::memory_order_relaxed) + 1;
    s.ok_streak.store(ok, std::memory_order_relaxed);
    observe(s, 0u);
    if (ok >= cfg_.recover_streak) return restore(victim, s);
    return transition::none;
  }

  void note_probe_failure(std::size_t victim) noexcept {
    auto& s = slots_[victim].get();
    s.ok_streak.store(0, std::memory_order_relaxed);
    observe(s, 1000u);
  }

  // ---- exposure round-trip latency ---------------------------------------

  // Called by the victim's SIGUSR1 handler (via the exposure trampoline):
  // single-writer tick on the handler thread's own slot. Async-signal-safe.
  void note_handler_ran(std::size_t self) noexcept {
    auto& t = slots_[self]->handler_ticks;
    t.store(t.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }

  // Arms an RTT measurement for `victim` right after a successful send.
  // At most one in flight per victim; re-arming while armed is a no-op.
  void arm_rtt(std::size_t victim, std::uint64_t now_ns) noexcept {
    auto& s = slots_[victim].get();
    std::uint64_t expected = 0;
    if (s.rtt_armed_ns.compare_exchange_strong(expected, now_ns,
                                               std::memory_order_relaxed)) {
      s.rtt_ticks_at_send.store(
          s.handler_ticks.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }

  // Resolves a pending RTT measurement: success (handler ran since the
  // send — EWMA the latency) or timeout past the deadline (EWMA-only
  // failure evidence). Cheap no-op when nothing is armed or pending.
  transition poll_rtt(std::size_t victim, std::uint64_t now_ns) noexcept {
    auto& s = slots_[victim].get();
    const std::uint64_t armed = s.rtt_armed_ns.load(std::memory_order_relaxed);
    if (armed == 0) return transition::none;
    const bool handler_ran =
        s.handler_ticks.load(std::memory_order_relaxed) !=
        s.rtt_ticks_at_send.load(std::memory_order_relaxed);
    if (!handler_ran && now_ns - armed < cfg_.rtt_deadline_ns) {
      return transition::none;  // still in flight
    }
    // Claim the resolution (one thief wins; losers see 0 and move on).
    std::uint64_t expected = armed;
    if (!s.rtt_armed_ns.compare_exchange_strong(expected, 0,
                                                std::memory_order_relaxed)) {
      return transition::none;
    }
    if (handler_ran) {
      const std::uint64_t rtt = now_ns - armed;
      const std::uint64_t prev = s.rtt_ewma_ns.load(std::memory_order_relaxed);
      // Signed step: (rtt - prev) wraps when the new sample is below the
      // EWMA, and dividing the wrapped unsigned value would catapult the
      // average toward 2^64 instead of decaying it.
      s.rtt_ewma_ns.store(
          prev == 0 ? rtt
                    : prev + static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(rtt - prev) / 8),
          std::memory_order_relaxed);
      observe(s, 0u);
      return transition::none;
    }
    // Timed out. Never feeds the hard streak (slow delivery is legitimate
    // under oversubscription); only sustained-majority EWMA evidence trips.
    observe(s, 1000u);
    if (!s.degraded.load(std::memory_order_relaxed) && ewma_tripped(s)) {
      return trip(victim, s);
    }
    return transition::none;
  }

  std::uint64_t rtt_ewma_ns(std::size_t victim) const noexcept {
    return slots_[victim]->rtt_ewma_ns.load(std::memory_order_relaxed);
  }

  // ---- oversubscription pressure (per worker, owner-driven) ---------------

  // Thief-written, per-*victim* steal-success EWMA (permille, shift-3
  // smoothing): how often does stealing from `victim` pay off, for anyone?
  // The locality-aware victim selector (sched/victim_select.h) weighs its
  // within-tier choice by this. Not gated on enabled(): locality weighting
  // works with the degradation layer off. Thieves race on the slot; lost
  // updates cost one observation, which the EWMA absorbs.
  void note_victim_steal(std::size_t victim, bool success) noexcept {
    auto& s = slots_[victim].get();
    const std::uint32_t prev =
        s.victim_steal_ewma_permille.load(std::memory_order_relaxed);
    const std::uint32_t obs = success ? 1000u : 0u;
    s.victim_steal_ewma_permille.store(
        prev + (static_cast<std::int32_t>(obs - prev) / 8),
        std::memory_order_relaxed);
  }

  // One relaxed load; the selector's within-tier weight.
  std::uint32_t victim_steal_ewma_permille(std::size_t victim) const noexcept {
    return slots_[victim]->victim_steal_ewma_permille.load(
        std::memory_order_relaxed);
  }

  // Owner-only: folds one steal attempt's outcome into the worker's
  // steal-success EWMA (permille, shift-8 smoothing).
  void note_steal_outcome(std::size_t self, bool success) noexcept {
    auto& s = slots_[self].get();
    const std::uint32_t prev =
        s.steal_ewma_permille.load(std::memory_order_relaxed);
    const std::uint32_t obs = success ? 1000u : 0u;
    s.steal_ewma_permille.store(prev + (static_cast<std::int32_t>(obs - prev) / 8),
                                std::memory_order_relaxed);
  }

  // Owner-only, rate-limited (sample_period): reads this thread's
  // involuntary-context-switch count and CPU placement, and re-evaluates
  // the worker's pressure flag. Call from idle paths only.
  void sample_preemption(std::size_t self, std::uint64_t now_ns) noexcept;

  // One relaxed load: is this worker under preemption pressure?
  bool pressure(std::size_t self) const noexcept {
    return slots_[self]->pressure.load(std::memory_order_relaxed);
  }

  // ---- introspection / test hooks ----------------------------------------

  std::uint64_t degrade_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : slots_) {
      n += s->degrades.load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint64_t recover_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : slots_) {
      n += s->recovers.load(std::memory_order_relaxed);
    }
    return n;
  }

  // Test hook: force a victim's state (counts the transition like a real
  // trip/restore would).
  transition force_degraded(std::size_t victim, bool degraded) noexcept {
    return degraded ? trip(victim, slots_[victim].get())
                    : restore(victim, slots_[victim].get());
  }

  // Relaxed-read snapshot of one worker's slot for dump_worker_state /
  // post-mortems. Safe to call from a monitor thread mid-hang.
  std::string debug_string(std::size_t worker) const;

 private:
  struct slot {
    // Signal-path state machine (written by thieves targeting this victim).
    std::atomic<bool> degraded{false};
    std::atomic<std::uint32_t> fail_streak{0};
    std::atomic<std::uint32_t> ok_streak{0};
    std::atomic<std::uint32_t> ewma_permille{0};
    std::atomic<std::uint32_t> observations{0};
    std::atomic<std::uint32_t> fallbacks_since_probe{0};
    std::atomic<std::uint64_t> degrades{0};
    std::atomic<std::uint64_t> recovers{0};
    // Exposure round-trip measurement.
    std::atomic<std::uint64_t> handler_ticks{0};  // victim's handler bumps
    std::atomic<std::uint64_t> rtt_armed_ns{0};   // 0 = nothing in flight
    std::atomic<std::uint64_t> rtt_ticks_at_send{0};
    std::atomic<std::uint64_t> rtt_ewma_ns{0};
    // Oversubscription pressure (owner-written, others read `pressure`).
    std::atomic<bool> pressure{false};
    std::atomic<std::uint32_t> steal_ewma_permille{0};
    // Per-victim steal-yield seen by thieves (victim_select.h weighting).
    // Starts at the neutral midpoint so unexplored victims compete evenly.
    std::atomic<std::uint32_t> victim_steal_ewma_permille{500};
    std::atomic<std::uint64_t> migrations{0};  // sched_getcpu drift; owner
                                               // writes, dumps read relaxed
    std::uint64_t last_sample_ns = 0;   // owner-only
    std::uint64_t last_nivcsw = 0;      // owner-only
    int last_cpu = -1;                  // owner-only
  };

  // Shift-8 EWMA over observation weights (0 = clean, 1000 = failure).
  void observe(slot& s, std::uint32_t weight) noexcept {
    const std::uint32_t prev = s.ewma_permille.load(std::memory_order_relaxed);
    s.ewma_permille.store(
        prev + (static_cast<std::int32_t>(weight - prev) / 8),
        std::memory_order_relaxed);
    const std::uint32_t n = s.observations.load(std::memory_order_relaxed);
    if (n < cfg_.min_window) {
      s.observations.store(n + 1, std::memory_order_relaxed);
    }
  }

  bool ewma_tripped(const slot& s) const noexcept {
    return s.observations.load(std::memory_order_relaxed) >= cfg_.min_window &&
           s.ewma_permille.load(std::memory_order_relaxed) >=
               cfg_.fail_permille;
  }

  // The compare_exchange picks the single winning thief; that winner also
  // emits the timeline event (trace.h), so degrade/recover events appear
  // exactly once per transition — same contract as the counters.
  transition trip(std::size_t victim, slot& s) noexcept {
    bool expected = false;
    if (!s.degraded.compare_exchange_strong(expected, true,
                                            std::memory_order_relaxed)) {
      return transition::none;  // another thief already tripped it
    }
    s.ok_streak.store(0, std::memory_order_relaxed);
    s.fallbacks_since_probe.store(0, std::memory_order_relaxed);
    s.degrades.store(s.degrades.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    trace::emit(trace::event::degrade, victim);
    return transition::degraded;
  }

  transition restore(std::size_t victim, slot& s) noexcept {
    bool expected = true;
    if (!s.degraded.compare_exchange_strong(expected, false,
                                            std::memory_order_relaxed)) {
      return transition::none;
    }
    // Fresh start for the healthy phase's evidence.
    s.fail_streak.store(0, std::memory_order_relaxed);
    s.ok_streak.store(0, std::memory_order_relaxed);
    s.ewma_permille.store(0, std::memory_order_relaxed);
    s.observations.store(0, std::memory_order_relaxed);
    s.recovers.store(s.recovers.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    trace::emit(trace::event::recover, victim);
    return transition::recovered;
  }

  const config cfg_;
  std::vector<cache_aligned<slot>> slots_;
};

// Oversubscription-aware steal budgeting: at most `budget` failed attempts
// per `window_ns` before the caller should sched_yield. Owner-only (one
// instance per worker, consulted from its own idle loop) — plain fields,
// no atomics.
class steal_throttle {
 public:
  steal_throttle(std::uint32_t budget, std::uint64_t window_ns) noexcept
      : budget_(budget), window_ns_(window_ns) {}

  // Records one failed steal round at `now_ns`; true when the budget for
  // the current window is exhausted (caller should yield the CPU).
  bool note_attempt(std::uint64_t now_ns) noexcept {
    if (now_ns - window_start_ns_ >= window_ns_) {
      window_start_ns_ = now_ns;
      attempts_ = 0;
    }
    return ++attempts_ > budget_;
  }

  void reset(std::uint64_t now_ns) noexcept {
    window_start_ns_ = now_ns;
    attempts_ = 0;
  }

  std::uint32_t attempts_in_window() const noexcept { return attempts_; }

 private:
  std::uint32_t budget_;
  std::uint64_t window_ns_;
  std::uint64_t window_start_ns_ = 0;
  std::uint32_t attempts_ = 0;
};

}  // namespace lcws::health
