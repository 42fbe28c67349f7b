// Adaptive worker parking (elastic idling).
//
// The paper's premise (Section 1.1) is that scheduler overhead matters most
// when the runtime does *not* own the machine: co-running runtimes,
// oversubscription, "a fraction of the machine". In that regime a thief
// that busy-spins through its backoff steals cycles from the very victim
// it is waiting on. This primitive lets a worker that has repeatedly failed
// to find work *park* — block on a per-worker condition variable — until a
// producer wakes it, so idle workers cost (almost) no CPU.
//
// Protocol (per worker slot):
//   parker:   announce()            -- publish intent; seq_cst RMW barrier
//             <final sweep for work>-- runs after the barrier, so any work
//                                      pushed before a producer could have
//                                      observed the announcement is found
//             park(timeout) or cancel()
//   producer: if (sleepers() != 0) unpark_one() / unpark(victim)
//
// Wakeups are delivered as sticky *permits* (binary-semaphore style): an
// unpark that races with the parker between its announcement and its wait
// leaves a permit that the wait consumes immediately, so an unpark is never
// lost once the waker has claimed the announcement. The residual window —
// a producer whose sleepers() read misses an in-flight announcement (the
// classic store-buffer/Dekker interleaving, since producers deliberately do
// NOT fence their hot path) — is closed by the timed backstop: park() is
// always a bounded wait, so a missed wake costs bounded latency, never
// progress. Callers adapt the timeout (double on fruitless episodes) to
// keep the idle duty cycle low.
//
// None of this synchronization is routed through the stats::op_counters
// instrumentation: the paper's figures profile the *work-stealing protocol*
// (fences/CAS/steals/exposures), and parking must not perturb them. The
// scheduler counts parks/wakes/idle-time through dedicated counters
// instead, and the whole subsystem can be disabled at runtime
// (LCWS_NO_PARKING=1 or a constructor knob) so the figure harnesses can
// assert counter-faithfulness.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "stats/trace.h"
#include "support/align.h"
#include "support/fault_injection.h"

namespace lcws {

// Runtime kill-switch plumbing: schedulers take a parking_mode knob whose
// default defers to the LCWS_NO_PARKING environment variable.
enum class parking_mode {
  env_default,  // parked unless LCWS_NO_PARKING is set to something truthy
  disabled,
  enabled,
};

inline bool parking_enabled(parking_mode mode) noexcept {
  switch (mode) {
    case parking_mode::disabled: return false;
    case parking_mode::enabled: return true;
    case parking_mode::env_default: break;
  }
  const char* s = std::getenv("LCWS_NO_PARKING");
  return s == nullptr || s[0] == '\0' || s[0] == '0';
}

class parking_lot {
 public:
  explicit parking_lot(std::size_t num_slots) {
    slots_.reserve(num_slots);
    for (std::size_t i = 0; i < num_slots; ++i) {
      slots_.push_back(std::make_unique<slot>());
    }
  }

  parking_lot(const parking_lot&) = delete;
  parking_lot& operator=(const parking_lot&) = delete;

  std::size_t num_slots() const noexcept { return slots_.size(); }

  // Number of workers currently between announce() and wake/cancel.
  // Producers read this (relaxed — one plain load on the hot path) to skip
  // the wake machinery entirely while nobody is parked.
  std::size_t sleepers() const noexcept {
    const auto n = nsleepers_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // Relaxed peek at one slot's announcement (true between announce() and
  // the wake/cancel/park that retires it). Callers may use it only as a
  // hint — e.g. a mailbox thief skipping a victim that, being parked, is
  // provably out of work; a stale read just costs one redundant probe.
  bool is_announced(std::size_t i) const noexcept {
    return slots_[i]->announced.load(std::memory_order_relaxed);
  }

  // Publishes slot `i`'s intent to park. The seq_cst RMW is the parker's
  // half of the Dekker handshake: the caller's subsequent sweep for work
  // cannot be satisfied by pre-announcement state alone.
  void announce(std::size_t i) noexcept {
    slots_[i]->announced.store(true, std::memory_order_relaxed);
    nsleepers_.fetch_add(1, std::memory_order_seq_cst);
  }

  // Retires an announcement without sleeping (the final sweep found work,
  // or the pool is shutting down). A wake that already claimed the
  // announcement leaves a sticky permit, consumed by the next park().
  void cancel(std::size_t i) noexcept {
    if (slots_[i]->announced.exchange(false, std::memory_order_acq_rel)) {
      nsleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Blocks slot `i` (previously announced) until a permit arrives or
  // `timeout` expires. Returns true iff woken by a permit. Always retires
  // the announcement on return.
  bool park(std::size_t i, std::chrono::microseconds timeout) {
    slot& s = *slots_[i];
    // Trace the episode on the parker's own ring (trace.h; no-op when
    // tracing is off). Like the stats contract above, this never touches
    // the paper's op counters.
    trace::emit(trace::event::park_begin);
    bool woken = false;
    if (fi::inject(fi::site::spurious_wake)) {
      // Injected fault: the wait "returns" instantly without a permit, as
      // a spurious OS wakeup would. A pending permit is left sticky for
      // the next park; the retire path below runs unchanged.
    } else {
      // EINTR / spurious-wake budget: the deadline is computed once, as an
      // absolute time point, before the first wait. A signal (SIGUSR1
      // exposure traffic lands on these threads constantly) or a spurious
      // futex wake interrupts the underlying wait; the predicated
      // wait_until then re-arms against the *same* deadline — the
      // remaining timeout, never a fresh full budget. (wait_for(pred)
      // would recompute its deadline relative to each re-entry on some
      // implementations; wait_until makes the re-arm contract explicit.)
      const auto deadline = std::chrono::steady_clock::now() + timeout;
      std::unique_lock<std::mutex> lock(s.m);
      woken = s.cv.wait_until(lock, deadline, [&] { return s.permit; });
      s.permit = false;
    }
    // On timeout the announcement is still ours to retire; on a wake the
    // waker already claimed it (and decremented). The exchange arbitrates
    // the race where a waker claims concurrently with our timeout: its
    // permit then simply rides into our next park.
    if (s.announced.exchange(false, std::memory_order_acq_rel)) {
      nsleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    trace::emit(trace::event::park_end, woken ? 1 : 0);
    return woken;
  }

  // Wakes one announced/parked worker, scanning from `hint`. Returns true
  // iff a worker was claimed and given a permit.
  bool unpark_one(std::size_t hint = 0) {
    if (nsleepers_.load(std::memory_order_seq_cst) <= 0) return false;
    const std::size_t n = slots_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (hint + k) % n;
      slot& s = *slots_[i];
      if (!s.announced.load(std::memory_order_relaxed)) continue;
      if (!s.announced.exchange(false, std::memory_order_acq_rel)) continue;
      nsleepers_.fetch_sub(1, std::memory_order_relaxed);
      trace::emit(trace::event::unpark, i);
      deliver_permit(s);
      return true;
    }
    return false;
  }

  // Targeted wake (mailbox steal requests): always delivers a permit, even
  // if `i` is not currently announced — a victim mid-announce then consumes
  // it instantly and re-checks its request box before sleeping.
  void unpark(std::size_t i) {
    slot& s = *slots_[i];
    if (s.announced.exchange(false, std::memory_order_acq_rel)) {
      nsleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    trace::emit(trace::event::unpark, i);
    deliver_permit(s);
  }

  // Wakes every announced worker (run start, shutdown, completion of a
  // stolen job that a joiner may be parked on). Returns the number woken.
  std::size_t unpark_all() {
    std::size_t woken = 0;
    for (auto& sp : slots_) {
      slot& s = *sp;
      if (!s.announced.load(std::memory_order_relaxed)) continue;
      if (!s.announced.exchange(false, std::memory_order_acq_rel)) continue;
      nsleepers_.fetch_sub(1, std::memory_order_relaxed);
      std::size_t i = static_cast<std::size_t>(&sp - slots_.data());
      trace::emit(trace::event::unpark, i);
      deliver_permit(s);
      ++woken;
    }
    return woken;
  }

 private:
  struct alignas(cache_line_size) slot {
    std::mutex m;
    std::condition_variable cv;
    bool permit = false;  // guarded by m; sticky until consumed by park()
    std::atomic<bool> announced{false};
  };

  static void deliver_permit(slot& s) {
    {
      std::lock_guard<std::mutex> lock(s.m);
      s.permit = true;
    }
    s.cv.notify_one();
  }

  std::vector<std::unique_ptr<slot>> slots_;
  // Own line: read (relaxed) on every producer hot path, written only
  // around actual park/wake transitions.
  alignas(cache_line_size) std::atomic<std::int64_t> nsleepers_{0};
};

}  // namespace lcws
