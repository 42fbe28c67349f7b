// Fork–join work-stealing scheduler, parameterized by one of the five
// policies in policies.h.
//
// Shape follows Parlay's scheduler (the paper's host runtime): the
// constructing thread is worker 0 and participates in every computation;
// P-1 additional workers are spawned once and persist. A fork (`pardo`)
// pushes the right branch as a stack-allocated job onto the forker's deque
// and runs the left branch inline. The join first pops the forker's own
// deque once: unless a thief took it, that returns the right branch, which
// then runs on the spot (the owner fast path, DESIGN.md §4 item 10).
// Otherwise the forker executes whatever work the scheduler hands it until
// the right branch is done (help-first join).
//
// The per-family scheduling logic — Listing 1 (USLCWS) and Listing 3
// (signal-based) of the paper — lives in get_local()/try_steal() below and
// is selected with `if constexpr` so each instantiation pays only for its
// own protocol.
//
// Idle workers adaptively *park* (support/parking_lot.h) instead of
// spinning forever: after kParkAfterFailures fruitless find-task rounds
// (i.e. past the backoff's pause→yield escalation) a worker announces
// itself, makes one final sweep over every deque, and blocks on its
// condition variable with an adaptive timed backstop. Producers wake
// sleepers along a semi-sleeping (ABP-style) wake chain:
//   * push               -> unpark_one   (new — possibly private — work)
//   * user-space expose  -> unpark_one   (work just became stealable)
//   * successful steal   -> unpark_one   (chain: more work is likely)
//   * stolen-job done    -> unpark_all   (its joiner may be parked)
//   * run()/shutdown     -> unpark_all
// Signal-family exposure runs inside a SIGUSR1 handler where waking is not
// async-signal-safe; there the requesting thief (awake by definition)
// steals the exposed task and the chain wake propagates from that steal.
// Mailbox requests never wake their victim: a parked mailbox victim is
// provably empty (it answers pending requests before sleeping and only the
// owner pushes), so the thief's bounded retract answers faster than a wake
// round-trip would — and waking provably-empty victims chain-reacts into a
// wake storm when the whole pool idles.
// Parking is gated by LCWS_NO_PARKING / a constructor knob and never
// touches the paper's fence/CAS/steal/exposure counters (see DESIGN.md).
//
// Hardening (DESIGN.md "Failure model & hardening"):
//   * Exceptions: a task that throws is captured in its job and rethrown
//     at the spawning pardo after the join has drained — user exceptions
//     surface at the spawn site in every family and never unwind a worker
//     loop or the (noexcept) signal-handler exposure path.
//   * Watchdog: LCWS_WATCHDOG_MS=<n> arms a monitor thread that dumps
//     per-worker state (dump_worker_state()) and aborts when no task-level
//     progress happens for a full deadline while a run() is active.
//   * Fault injection: under LCWS_FAULT_INJECTION the fi:: sites in
//     deque_steal/mailbox_steal (forced steal failure), signal_support.cpp
//     (dropped/delayed/unsendable exposure signals) and parking_lot.h
//     (spurious wakeups) can be armed deterministically; zero-cost
//     otherwise.
//   * Signal-send failure (DESIGN.md §5.4, §6): Listing 3 is the signal
//     family's only path. A send that fails is counted in signals_failed
//     and the thief clears the victim's targeted flag so a later thief can
//     try again; every exposure request resolves to exactly one of
//     signals_sent or signals_failed.
//   * LCWS_DUMP_ON_EXIT emits dump_worker_state() at destruction ("1" or
//     "stderr" to stderr, anything else appends to that file path).
//
// Locality-aware victim selection (DESIGN.md §7, sched/victim_select.h):
//   * Workers are pinned to CPUs (LCWS_PIN=compact|scatter|off) and each
//     carries a distance-ordered victim table built at construction from
//     the sysfs topology (support/topology.h). steal_once picks a tier
//     with geometric bias toward near victims, then a victim within the
//     tier by power-of-two-choices on the pool's per-victim steal-success
//     EWMA (victim_steal_ewma_); every 16th pick is uniform so remote
//     victims are never starved.
//   * Steals that took a task are classified near/remote + per tier
//     (stats/counters.h): steals - claims_lost == steals_near +
//     steals_remote while the layer is on.
//   * LCWS_LOCALITY_OFF=1 (or the constructor knob) removes the layer:
//     no pinning, and victim choice is the legacy uniform rng draw
//     bit-for-bit.
//   * LCWS_SEED=<n> reseeds the per-worker xoshiro streams (reproducible
//     victim-selection experiments); unset keeps the historical seeds.
//
// Cancellation & deadlines (DESIGN.md §11):
//   * Cooperative cancellation: cancel_run() — or run_for()'s deadline, or
//     LCWS_RUN_TIMEOUT_MS wrapping every run() — sets a per-run token that
//     every pardo checks; forks then throw run_cancelled_error, the tree
//     collapses through the ordinary drain-then-rethrow joins, and the
//     pool stays reusable. With LCWS_WATCHDOG_MS armed the first frozen
//     deadline now dumps and *cancels* (escalation rung 1); only a second
//     consecutive frozen window aborts.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "deque/job.h"
#include "deque/reclaim.h"
#include "sched/policies.h"
#include "sched/run_errors.h"
#include "sched/signal_support.h"
#include "sched/victim_select.h"
#include "stats/counters.h"
#include "stats/perf_counters.h"
#include "stats/trace.h"
#include "support/align.h"
#include "support/backoff.h"
#include "support/fault_injection.h"
#include "support/parking_lot.h"
#include "support/rng.h"
#include "support/threads.h"
#include "support/timing.h"
#include "support/watchdog.h"

namespace lcws {

template <typename Policy>
class scheduler {
 public:
  using policy_type = Policy;
  using deque_type = typename Policy::deque_type;
  static constexpr sched_family family = Policy::family;

  // deque_capacity is each worker's starting deque size; a deque that
  // fills up doubles its storage (DESIGN.md §8). `parking` is the
  // elastic-idling kill-switch (default: on unless LCWS_NO_PARKING is set
  // in the environment); `locality` the victim-selection one (default: on
  // unless LCWS_LOCALITY_OFF is set).
  explicit scheduler(std::size_t num_workers,
                     std::size_t deque_capacity = default_deque_capacity,
                     parking_mode parking = parking_mode::env_default,
                     locality_mode locality = locality_mode::env_default)
      : nworkers_(num_workers == 0 ? 1 : num_workers),
        targeted_(nworkers_),
        victim_steal_ewma_(nworkers_),
        counters_(nworkers_),
        lot_(nworkers_),
        parking_(parking_enabled(parking) && nworkers_ > 1),
        loc_cfg_(locality_config::from_env()),
        locality_(locality_enabled(locality, loc_cfg_) && nworkers_ > 1),
        seed_(env_seed()),
        dump_on_exit_([] {
          const char* s = std::getenv("LCWS_DUMP_ON_EXIT");
          return s == nullptr ? std::string() : std::string(s);
        }()),
        owner_(std::this_thread::get_id()) {
    // Observability (DESIGN.md §10): per-worker trace rings (LCWS_TRACE)
    // and hardware-counter slots, both sized before any worker runs so the
    // hot paths never allocate.
    tracer_.init(nworkers_, trace::config::from_env());
    hw_slots_ = std::vector<cache_aligned<hw_slot>>(nworkers_);
    workers_.reserve(nworkers_);
    for (std::size_t i = 0; i < nworkers_; ++i) {
      workers_.push_back(std::make_unique<worker_state>(
          this, i, deque_capacity, worker_rng_seed(seed_, i)));
    }
    // Locality layer: probe the hierarchy, settle the worker->CPU plan and
    // precompute each worker's distance-ordered victim table — all before
    // any thread runs, so the steal hot path never builds or allocates.
    cpu_of_worker_.assign(nworkers_, -1);
    if (locality_) {
      // Unexplored victims start at the neutral midpoint and compete evenly.
      for (auto& ewma : victim_steal_ewma_) {
        ewma->store(500, std::memory_order_relaxed);
      }
      topo_ = probe_topology();
      const std::vector<int> order = pin_order(topo_, loc_cfg_.pin);
      if (!order.empty()) {
        for (std::size_t i = 0; i < nworkers_; ++i) {
          cpu_of_worker_[i] = order[i % order.size()];
        }
      }
      for (std::size_t i = 0; i < nworkers_; ++i) {
        workers_[i]->victims.build(
            build_victim_table(topo_, cpu_of_worker_, i));
      }
      // Pin worker 0 (the constructing thread) here; spawned workers pin
      // themselves on entry. The caller's thread outlives the pool, so its
      // original mask is saved and restored at destruction.
      if (cpu_of_worker_[0] >= 0) {
        saved_affinity_ = save_this_thread_affinity();
        pin_this_thread(static_cast<std::size_t>(cpu_of_worker_[0]));
      }
    }
    if constexpr (family == sched_family::signal) {
      detail::install_exposure_handler();
    }
    register_worker(0);  // the constructing thread is worker 0
    threads_.reserve(nworkers_ - 1);
    for (std::size_t i = 1; i < nworkers_; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
    // Thieves read victims' pthread handles; wait until every worker has
    // published its own.
    while (ready_.load(std::memory_order_acquire) + 1 < nworkers_) {
      std::this_thread::yield();
    }
    // Opt-in stall watchdog (LCWS_WATCHDOG_MS): armed around each run(),
    // reads only relaxed atomics, aborts with a per-worker dump on a stall.
    if (const auto deadline = watchdog::env_deadline()) {
      dog_ = std::make_unique<watchdog>(
          *deadline, [this] { return progress_token(); },
          [this] { return dump_worker_state(); }, watchdog::stall_fn{},
          // §11 escalation rung 1: a frozen window cancels the active run
          // cooperatively before the (second-window) abort.
          [this](const std::string&) { cancel_run(/*from_deadline=*/true); });
    }
  }

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  ~scheduler() {
    dog_.reset();  // the monitor reads worker state; stop it first
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_.store(true, std::memory_order_release);
    }
    idle_cv_.notify_all();
    lot_.unpark_all();  // parked workers must observe shutdown_
    for (auto& t : threads_) t.join();
    finalize_worker_hw(0);
    // Post-mortem knob: all workers have joined, so the state below is the
    // pool's final quiescent snapshot.
    if (!dump_on_exit_.empty()) emit_exit_dump();
    if (tracer_.enabled()) tracer_.write_chrome_json(Policy::name);
    unregister_worker();
    // Un-pin the constructing thread: it outlives this pool.
    restore_this_thread_affinity(saved_affinity_);
  }

  std::size_t num_workers() const noexcept { return nworkers_; }
  static constexpr const char* name() noexcept { return Policy::name; }

  // Runs `f` as the root of a parallel computation on worker 0 (the thread
  // that constructed this scheduler), waking the other workers for its
  // duration. Returns f's result. With LCWS_RUN_TIMEOUT_MS set, every
  // top-level run carries that deadline (see run_for).
  template <typename F>
  decltype(auto) run(F&& f) {
    assert(std::this_thread::get_id() == owner_ &&
           "scheduler::run must be called from the constructing thread");
    if (active_.load(std::memory_order_relaxed)) {
      return std::forward<F>(f)();  // nested run: already inside a root
    }
    if (run_timeout_ms_ != 0) {
      return run_for(std::chrono::milliseconds(run_timeout_ms_),
                     std::forward<F>(f));
    }
    return run_root(std::forward<F>(f));
  }

  // run() with a deadline (§11): if the computation is still in flight
  // after `limit`, the run is cancelled cooperatively — every pardo from
  // then on throws run_cancelled_error, the tree collapses through the
  // ordinary drain-then-rethrow joins, and that error surfaces here. The
  // pool remains fully reusable afterwards. Nested calls inherit the
  // enclosing run's deadline (no second timer is armed).
  template <typename Rep, typename Period, typename F>
  decltype(auto) run_for(std::chrono::duration<Rep, Period> limit, F&& f) {
    assert(std::this_thread::get_id() == owner_ &&
           "scheduler::run_for must be called from the constructing thread");
    if (active_.load(std::memory_order_relaxed)) {
      return std::forward<F>(f)();  // nested: the outer deadline governs
    }
    run_deadline_timer timer(
        this, std::chrono::duration_cast<std::chrono::nanoseconds>(limit));
    return run_root(std::forward<F>(f));
  }

  // Cooperatively cancels the active run (§11). Safe from any thread —
  // including the run_for timer and the watchdog monitor. Returns true iff
  // this call performed the cancelling edge (one per run; later calls and
  // calls between runs are no-ops). The collapse itself is cooperative:
  // in-flight tasks run to their next pardo, which refuses the fork by
  // throwing run_cancelled_error.
  bool cancel_run(bool from_deadline = false) {
    if (!active_.load(std::memory_order_relaxed)) return false;
    bool expected = false;
    if (!cancelled_.compare_exchange_strong(expected, true,
                                            std::memory_order_relaxed)) {
      return false;
    }
    // Callers are often off-pool threads whose TLS counter block is the
    // unaggregated fallback; count on worker 0's block instead.
    ++counters_[0].get().runs_cancelled;
    trace::emit(trace::event::cancel, from_deadline ? 1 : 0);
    // Parked workers hold no tasks, but their joiners' wake chain must not
    // stall the collapse.
    if (parking_) stats::count_wake(lot_.unpark_all());
    return true;
  }

  // Whether the active run has been cancelled (relaxed peek; test hook).
  bool run_cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  // The top-level run body shared by run()/run_for().
  template <typename F>
  decltype(auto) run_root(F&& f) {
    // Stale targeted_ flags must not leak across computations: a flag left
    // true when the previous run drained would suppress this run's first
    // signal (signal family) or trigger a spurious exposure on the first
    // multi-task pop (user-space family). No computation is in flight, so
    // relaxed stores suffice.
    for (auto& flag : targeted_) {
      flag->store(false, std::memory_order_relaxed);
    }
    // Fresh §11 per-run state: the cancellation token rearms.
    cancelled_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_.store(true, std::memory_order_release);
    }
    idle_cv_.notify_all();
    // Workers idling between runs may be in a timed park rather than the
    // inactive wait; hand each a permit so the computation starts promptly.
    if (parking_) stats::count_wake(lot_.unpark_all());
    if (dog_) dog_->arm();
    // The guard also fires when f throws: every pardo drains its sibling
    // before rethrowing, so by the time an exception reaches here no task
    // of this computation is in flight and deactivating is safe. It is
    // also the trace/hw flush point: worker 0 samples its counters and the
    // rings are rewritten to LCWS_TRACE on every top-level run() exit.
    struct deactivate {
      scheduler* pool;
      ~deactivate() {
        if (pool->dog_ != nullptr) pool->dog_->disarm();
        trace::emit(trace::event::run_end);
        pool->active_.store(false, std::memory_order_release);
        pool->sample_hw(0);
        if (pool->tracer_.enabled()) {
          pool->tracer_.write_chrome_json(Policy::name);
        }
      }
    } guard{this};
    trace::emit(trace::event::run_begin);
    return std::forward<F>(f)();
  }

  // One-shot §11 deadline: a scoped timer thread that cancels the active
  // run if it outlives `limit`. The destructor always stops the timer
  // before run_for returns (or unwinds), so a deadline can never leak into
  // a later run.
  class run_deadline_timer {
   public:
    run_deadline_timer(scheduler* pool, std::chrono::nanoseconds limit)
        : pool_(pool), t_([this, limit] {
            std::unique_lock<std::mutex> lock(m_);
            if (!cv_.wait_for(lock, limit, [this] { return stop_; })) {
              pool_->cancel_run(/*from_deadline=*/true);
            }
          }) {}
    ~run_deadline_timer() {
      {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
      }
      cv_.notify_all();
      t_.join();
    }

   private:
    scheduler* pool_;
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread t_;  // last: starts after every field it reads
  };

 public:
  // Fork–join: schedules `right` for potential theft, runs `left` inline,
  // then joins. Callable from worker 0 or from inside any task. When called
  // outside run(), wraps itself in one.
  //
  // Exception semantics: if either branch throws, the other still runs to
  // completion (the join *always* drains — right_job lives on this stack
  // frame and may be executing on a thief, so unwinding early would be
  // use-after-free). The exception then rethrows here, at the spawn site;
  // when both branches throw, the left one wins and the right one is
  // dropped. Nested pardos propagate the same way, so an exception deep in
  // a stolen subtree climbs join by join to the original caller.
  template <typename L, typename R>
  void pardo(L&& left, R&& right) {
    if (!active_.load(std::memory_order_relaxed)) [[unlikely]] {
      run([&] { pardo(left, right); });
      return;
    }
    const std::size_t self = this_worker_id();
    assert(self < nworkers_ && "pardo called from a non-worker thread");
    // Cancellation point (§11): a cancelled run refuses every further fork
    // so the tree collapses instead of growing. One relaxed load of a
    // read-mostly flag that shares its line with active_ (already loaded
    // above), so the uncancelled hot path pays no extra cache traffic.
    if (cancelled_.load(std::memory_order_relaxed)) [[unlikely]] {
      throw run_cancelled_error();
    }
    lambda_job<std::remove_reference_t<R>> right_job(right);
    push(self, &right_job);
    if constexpr (std::is_nothrow_invocable_v<L&>) {
      left();
      join(self, right_job);
    } else {
      std::exception_ptr left_ex;
      try {
        left();
      } catch (...) {
        left_ex = std::current_exception();
      }
      join(self, right_job);
      if (left_ex != nullptr) std::rethrow_exception(left_ex);
    }
    right_job.rethrow_if_exception();
  }

  // ---- instrumentation ----------------------------------------------------

  // Aggregated synchronization-operation profile. Only meaningful while no
  // computation is running.
  stats::profile profile() const {
    stats::profile p = stats::aggregate(counters_);
    p.hw = collect_hw();
    return p;
  }

  // Pool-wide hardware-counter totals (perf_counters.h). Workers publish
  // cumulative readings into their slot at cold boundaries (park entry,
  // between-runs idle, run exit, shutdown); this sums the latest samples.
  stats::hw_profile collect_hw() const {
    stats::hw_profile hw;
    if (!hw_enabled_) return hw;  // status stays "unavailable:off"
    int best = 0;
    int err = 0;
    for (std::size_t i = 0; i < nworkers_; ++i) {
      const hw_slot& s = hw_slots_[i].get();
      hw.cycles += s.cycles.get();
      hw.instructions += s.instructions.get();
      hw.cache_references += s.cache_references.get();
      hw.cache_misses += s.cache_misses.get();
      hw.task_clock_ns += s.task_clock_ns.get();
      const int code = s.state.load(std::memory_order_relaxed);
      if (code > best) best = code;
      const int e = s.err.load(std::memory_order_relaxed);
      if (e != 0 && err == 0) err = e;
    }
    switch (best) {
      case kHwFull:
        hw.available = true;
        hw.status = "available";
        break;
      case kHwCpuOnly:
        hw.available = true;
        hw.status = "partial:no-cache-counters";
        break;
      case kHwClockOnly:
        hw.available = true;
        hw.status =
            std::string("partial:task-clock-only:") + stats::errno_name(err);
        break;
      default:
        hw.status = std::string("unavailable:") +
                    (err != 0 ? stats::errno_name(err) : "not-sampled");
        break;
    }
    return hw;
  }

  // Whether per-worker perf_event sampling was requested (LCWS_PERF).
  bool hw_counters_enabled() const noexcept { return hw_enabled_; }

  // The trace layer (test/diagnostic; enabled iff LCWS_TRACE was set).
  const trace::tracer& tracer() const noexcept { return tracer_; }

  // Zeroes all counters (call while no computation is running).
  void reset_counters() noexcept {
    for (auto& block : counters_) block.get() = stats::op_counters{};
  }

  // Whether elastic idling is in effect for this pool.
  bool parking_active() const noexcept { return parking_; }

  // Whether the LCWS_WATCHDOG_MS stall watchdog is attached.
  bool watchdog_active() const noexcept { return dog_ != nullptr; }

  // Monotone token that advances whenever scheduler-level work happens
  // (tasks executed, deque traffic). The watchdog samples it; a full
  // deadline without movement while a run() is active is declared a stall.
  std::uint64_t progress_token() const noexcept {
    std::uint64_t token = 0;
    for (const auto& block : counters_) {
      const auto& c = block.get();
      token += c.tasks_executed.get() + c.pushes.get() +
               c.pops_private.get() + c.pops_public.get() + c.steals.get();
    }
    return token;
  }

  // Human-readable per-worker snapshot: deque indices, targeted/parked
  // flags and key counters. Reads only relaxed atomics, so it is safe to
  // call from the watchdog's monitor thread mid-hang (values are racy
  // estimates — exactly what a post-mortem needs).
  std::string dump_worker_state() const {
    std::ostringstream out;
    out << "scheduler=" << Policy::name << " workers=" << nworkers_
        << " active=" << active_.load(std::memory_order_relaxed)
        << " shutdown=" << shutdown_.load(std::memory_order_relaxed)
        << " parking=" << parking_ << " locality=" << locality_
        << " cancelled=" << cancelled_.load(std::memory_order_relaxed)
        << "\n";
    for (std::size_t i = 0; i < nworkers_; ++i) {
      const auto& c = counters_[i].get();
      out << "  w" << i << ": deque{" << workers_[i]->deque.debug_string()
          << "} targeted=" << targeted_[i]->load(std::memory_order_relaxed)
          << " announced=" << lot_.is_announced(i)
          << " tasks=" << c.tasks_executed.get()
          << " grows=" << c.deque_grows.get()
          << " hwm=" << c.deque_hwm.get()
          << " steals=" << c.steals.get() << "/" << c.steal_attempts.get();
      if (locality_) {
        out << " cpu=" << cpu_of_worker_[i]
            << " near/remote=" << c.steals_near.get() << "/"
            << c.steals_remote.get() << " steal_ewma_pm="
            << victim_steal_ewma_[i]->load(std::memory_order_relaxed);
      }
      out << " exposures=" << c.exposures.get()
          << " idle_loops=" << c.idle_loops.get()
          << " parks=" << c.parks.get();
      if (hw_enabled_) {
        const hw_slot& s = hw_slots_[i].get();
        out << " hw{state=" << s.state.load(std::memory_order_relaxed)
            << " err=" << stats::errno_name(s.err.load(std::memory_order_relaxed))
            << " cycles=" << s.cycles.get()
            << " cache_misses=" << s.cache_misses.get() << "}";
      }
      out << "\n";
      if (tracer_.enabled()) {
        out << "    trace tail (newest last, of "
            << tracer_.worker_ring(i)->emitted() << " events):\n"
            << tracer_.tail_string(i, 16);
      }
    }
    return out.str();
  }

  // Whether §7 locality-aware victim selection is in effect for this pool.
  bool locality_active() const noexcept { return locality_; }

  // The CPU worker `worker` was pinned to (-1: unpinned / locality off).
  int pinned_cpu_of(std::size_t worker) const noexcept {
    return cpu_of_worker_[worker];
  }

  // Distance tier of `victim` as seen from `self` (test/diagnostic; only
  // meaningful while locality is active).
  locality_tier tier_between(std::size_t self,
                             std::size_t victim) const noexcept {
    return workers_[self]->victims.tier_of(victim);
  }

  // Test/diagnostic access.
  deque_type& deque_of(std::size_t worker) noexcept {
    return workers_[worker]->deque;
  }
  // The pool's reclamation domain (DESIGN.md §8; test/diagnostic).
  reclaim_domain& reclaim() noexcept { return reclaim_; }
  bool is_targeted(std::size_t worker) const noexcept {
    return targeted_[worker]->load(std::memory_order_relaxed);
  }
  void set_targeted(std::size_t worker, bool value) noexcept {  // test hook
    targeted_[worker]->store(value, std::memory_order_relaxed);
  }

 private:
  // Park after this many consecutive fruitless find-task rounds — past the
  // backoff's pause->yield escalation (10 doubling pause steps), so a
  // worker has yielded the CPU plenty before it commits to sleeping. The
  // threshold is calibrated to the cost of one round: a mailbox round spins
  // up to 512 iterations (with yields) waiting for the victim's answer,
  // ~100x the cost of a deque probe, so the mailbox family parks after
  // proportionally fewer rounds.
  static constexpr std::uint32_t kParkAfterFailures =
      family == sched_family::mailbox ? 4 : 32;
  // Adaptive backstop bounds: first park waits kParkMinUs; fruitless
  // episodes double it up to kParkMaxUs; any delivered permit resets it.
  // The backstop also bounds the cost of the one theoretical lost-wake
  // interleaving (see parking_lot.h): the ceiling is the worst-case extra
  // latency of a missed wake, while every spurious timed wakeup costs a
  // probe sweep — 20ms keeps long-idle workers under 50 wakeups/s each.
  static constexpr std::uint32_t kParkMinUs = 100;
  static constexpr std::uint32_t kParkMaxUs = 20000;

  struct worker_state {
    worker_state(scheduler* p, std::size_t i, std::size_t deque_capacity,
                 std::uint64_t rng_seed)
        : id(i),
          reader(p->reclaim_.register_reader()),
          deque(deque_capacity, &p->reclaim_),
          rng(rng_seed) {}
    const std::size_t id;
    // Reclamation reader slot (DESIGN.md §8): registered before any run()
    // — and therefore before any growth — per reclaim_domain's contract.
    const std::size_t reader;
    deque_type deque;
    xoshiro256 rng;            // victim selection; owner-only
    pthread_t handle{};        // published before ready_ increments
    steal_box<job> mail;       // mailbox family: this worker's answer box
    victim_selector victims;   // §7 distance-ordered table; owner-only
    std::uint32_t park_timeout_us = kParkMinUs;  // adaptive; owner-only
    stats::perf_group hw;      // §10 per-thread counters; owner-only
  };

  // Availability codes published per worker in hw_slot::state.
  static constexpr int kHwFull = 3;       // cycles+instructions+cache
  static constexpr int kHwCpuOnly = 2;    // cycles+instructions
  static constexpr int kHwClockOnly = 1;  // task-clock software event only

  // Cumulative hardware readings, overwritten by the owning worker at cold
  // sample points and read (racily, by design) by profile() and the dumps.
  struct hw_slot {
    stats::relaxed_counter cycles;
    stats::relaxed_counter instructions;
    stats::relaxed_counter cache_references;
    stats::relaxed_counter cache_misses;
    stats::relaxed_counter task_clock_ns;
    std::atomic<int> state{0};  // kHw* code; 0 = nothing opened
    std::atomic<int> err{0};    // errno from the hw-group open failure
  };

  // A found task plus its provenance: stolen tasks drive the wake chain
  // (and their completion may unblock a parked joiner).
  struct found_task {
    job* task = nullptr;
    bool stolen = false;
    explicit operator bool() const noexcept { return task != nullptr; }
  };

  // ---- registration -------------------------------------------------------

  void register_worker(std::size_t id) {
    set_this_worker_id(id);
    stats::set_local_counters(&counters_[id].get());
    trace::set_local_ring(tracer_.worker_ring(id));
    if (hw_enabled_) {
      // perf_event groups count the opening thread, so each worker opens
      // its own on entry; availability (or the errno) is published for
      // collect_hw()/dump_worker_state.
      auto& ws = *workers_[id];
      ws.hw.open(stats::perf_env_force_errno());
      auto& slot = hw_slots_[id].get();
      const std::string st = ws.hw.status();
      slot.state.store(st == "available"                   ? kHwFull
                       : st == "partial:no-cache-counters" ? kHwCpuOnly
                       : ws.hw.is_open()                   ? kHwClockOnly
                                                           : 0,
                       std::memory_order_relaxed);
      slot.err.store(ws.hw.error(), std::memory_order_relaxed);
    }
    workers_[id]->handle = pthread_self();
    if constexpr (family == sched_family::signal) {
      detail::set_exposure_hook(&exposure_trampoline, workers_[id].get());
    }
  }

  void unregister_worker() noexcept {
    if constexpr (family == sched_family::signal) {
      detail::clear_exposure_hook();
    }
    trace::set_local_ring(nullptr);
    stats::set_local_counters(nullptr);
    set_this_worker_id(npos_worker);
  }

  // Publishes the worker's cumulative hardware readings into its slot.
  // Called only at cold boundaries (park entry, between-runs idle, run
  // exit, shutdown) — one read() syscall each, never per task or steal.
  void sample_hw(std::size_t self) noexcept {
    if (!hw_enabled_) return;
    const stats::hw_values v = workers_[self]->hw.read();
    if (!v.any()) return;
    hw_slot& s = hw_slots_[self].get();
    s.cycles = v.cycles;
    s.instructions = v.instructions;
    s.cache_references = v.cache_references;
    s.cache_misses = v.cache_misses;
    s.task_clock_ns = v.task_clock_ns;
    if (v.cpu_valid) trace::emit(trace::event::hw_cycles, v.cycles);
    if (v.cache_valid) {
      trace::emit(trace::event::hw_cache_misses, v.cache_misses);
    }
  }

  // Final sample + fd teardown on the worker's own thread (worker_loop
  // exit; the destructor does worker 0 after the others joined).
  void finalize_worker_hw(std::size_t self) noexcept {
    sample_hw(self);
    workers_[self]->hw.close();
  }

  // SIGUSR1 lands here on the victim's thread (signal family only):
  // transfer work to the public part in constant time (Section 4).
  static void exposure_trampoline(void* ctx) noexcept {
    auto* ws = static_cast<worker_state*>(ctx);
    Policy::expose(ws->deque);
    // Relaxed stores into this thread's own ring are async-signal-safe;
    // see trace.h for the mid-emit reentrancy contract.
    trace::emit(trace::event::exposure_answer, ws->id);
  }

  // ---- wake chain ---------------------------------------------------------

  // One relaxed load when nobody sleeps keeps producers fence-free.
  void wake_one(std::size_t self) {
    if (lot_.unpark_one(self + 1 < nworkers_ ? self + 1 : 0)) {
      stats::count_wake();
    }
  }

  // ---- per-family deque protocol -----------------------------------------

  void push(std::size_t self, job* task) {
    workers_[self]->deque.push_bottom(task);
    if constexpr (family == sched_family::signal) {
      // A fresh push means there is (new) work that could be exposed, so
      // notifications become useful again (Section 4: the flag is reset
      // when the target pushes a new task).
      auto& flag = targeted_[self].get();
      if (flag.load(std::memory_order_relaxed)) {
        flag.store(false, std::memory_order_relaxed);
      }
    }
    // Wake-chain root: fresh (possibly still private) work can satisfy a
    // parked thief — it will probe, request exposure if needed, and steal.
    if (parking_ && lot_.sleepers() != 0) wake_one(self);
  }

  // Local half of Listing 1 / Listing 3's get_task: own private part, then
  // own public part.
  job* get_local(std::size_t self) {
    auto& d = workers_[self]->deque;
    if constexpr (family == sched_family::ws) {
      return d.pop_bottom();
    } else if constexpr (family == sched_family::user_space) {
      // Listing 1 lines 7-17.
      job* task = Policy::pop_local(d);
      if (task == nullptr) {
        if constexpr (Policy::unexposes) {
          // Lace-style: reclaim still-unstolen public work back into the
          // private part, then retry the fence-free pop.
          if (d.unexpose_half() > 0) task = Policy::pop_local(d);
        }
      }
      if (task != nullptr) {
        auto& flag = targeted_[self].get();
        if (flag.load(std::memory_order_relaxed)) {
          flag.store(false, std::memory_order_relaxed);
          const bool exposed = Policy::expose(d) > 0;
          trace::emit(trace::event::exposure_answer, self);
          // The exposed task is stealable right now; hand it to a sleeper.
          if (exposed && parking_ && lot_.sleepers() != 0) wake_one(self);
        }
        return task;
      }
      task = d.pop_public_bottom();
      if (task != nullptr) return task;
      targeted_[self]->store(false, std::memory_order_relaxed);
      return nullptr;
    } else if constexpr (family == sched_family::mailbox) {
      // pop_bottom polls and answers a pending steal request; when the
      // stack is empty the poll still runs, which keeps the victim
      // responsive while it spins in a join or idle loop.
      return d.pop_bottom();
    } else {  // signal family
      job* task = Policy::pop_local(d);
      if (task != nullptr) return task;
      task = d.pop_public_bottom();
      if (task != nullptr) {
        // A task left the public part: allow new notifications.
        targeted_[self]->store(false, std::memory_order_relaxed);
      }
      return task;
    }
  }

  // Thief half: one steal attempt against `victim`.
  job* try_steal(std::size_t self, std::size_t victim) {
    if constexpr (family == sched_family::mailbox) {
      return mailbox_steal(self, victim);
    } else {
      (void)self;
      return deque_steal(victim);
    }
  }

  // Mailbox protocol (private_deques): post a request, spin for the
  // answer, retract on timeout. The victim answers at its next scheduling
  // point — which may be far away if it is inside a long sequential task
  // (the documented weakness of the approach). `self` is threaded down from
  // find_task so the steal loop never re-reads this_worker_id()'s TLS.
  job* mailbox_steal(std::size_t self, std::size_t victim) {
    // A parked victim is provably empty (it drains its stack and answers
    // pending requests before sleeping; only the owner pushes), so posting
    // to one could only spin out the retract timeout below. Skip in O(1).
    // The peek is a stale-tolerant hint: a victim waking concurrently is
    // simply probed again next round.
    if (parking_ && lot_.is_announced(victim)) return nullptr;
    if (fi::inject(fi::site::steal_cas)) {
      // Injected fault: the request CAS "loses" to another thief.
      stats::count_steal_attempt();
      return nullptr;
    }
    auto& box = workers_[self]->mail;
    box.answer.store(steal_box<job>::pending(), std::memory_order_relaxed);
    auto& d = workers_[victim]->deque;
    stats::count_steal_attempt();
    if (!d.post_request(&box)) return nullptr;  // victim busy with another
    stats::count_exposure_request();
    trace::emit(trace::event::exposure_request, victim);
    // No wake for the victim: a parked mailbox victim is provably empty
    // (it answers pending requests and drains its own stack before
    // sleeping, and only the owner pushes), so waking it could only buy a
    // faster "no work" answer than the retract timeout below — not worth
    // two context switches. Waking victims here also feeds back: each
    // woken victim's own probe posts a request that wakes the next
    // sleeper, a self-sustaining storm when the whole pool is idle.
    bool retracted = false;
    for (int spin = 0;; ++spin) {
      job* answer = box.answer.load(std::memory_order_acquire);
      if (answer != steal_box<job>::pending()) {
        if (answer != nullptr) stats::count_steal_success();
        return answer;
      }
      if (!retracted && spin > 512) {
        if (d.retract_request(&box)) return nullptr;
        retracted = true;  // victim is answering: the box fills imminently
      }
      if ((spin & 15) == 15) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
  }

  job* deque_steal(std::size_t victim) {
    auto& d = workers_[victim]->deque;
    if (fi::inject(fi::site::steal_cas)) {
      // Injected fault: behave exactly as a pop_top that lost its CAS race
      // — attempt made, nothing taken, thief retries elsewhere. The deque
      // is untouched, so the pushes == pops + steals balance is preserved.
      stats::count_steal_attempt();
      stats::count_steal_abort();
      return nullptr;
    }
    const auto result = d.pop_top();
    if (result.status == steal_status::stolen) {
      if constexpr (family == sched_family::signal) {
        // A task left the victim's public part: allow new notifications.
        targeted_[victim]->store(false, std::memory_order_relaxed);
      }
      return result.task;
    }
    if (result.status == steal_status::private_work) {
      if constexpr (family == sched_family::user_space) {
        // Listing 1 line 22: ask the victim to expose on its next
        // scheduling round.
        auto& flag = targeted_[victim].get();
        if (!flag.load(std::memory_order_relaxed)) {
          stats::count_exposure_request();
          trace::emit(trace::event::exposure_request, victim);
          flag.store(true, std::memory_order_relaxed);
        }
      } else if constexpr (family == sched_family::signal) {
        // Listing 3 lines 8-11 (plus Conservative's has_two_tasks gate).
        // The victim provably has private work, so it is running, never
        // parked — no wake needed; the handler's exposure is harvested by
        // this (awake) thief on a later round.
        auto& flag = targeted_[victim].get();
        if (!flag.load(std::memory_order_relaxed) &&
            Policy::should_signal(d)) {
          flag.store(true, std::memory_order_relaxed);
          stats::count_exposure_request();
          trace::emit(trace::event::exposure_request, victim);
          if (detail::send_exposure_request(workers_[victim]->handle)) {
            stats::count_signal_sent();
          } else {
            // Delivery failed even after send_exposure_request's retry
            // budget (counted in signals_failed). Leaving the flag set
            // would permanently suppress signalling this victim; clear it
            // so a later thief can try again.
            flag.store(false, std::memory_order_relaxed);
          }
        }
      }
    }
    return nullptr;
  }

  // LCWS_DUMP_ON_EXIT: post-mortem snapshot at destruction. The dump
  // mutex (trace.h) keeps each pool's report contiguous when several
  // pools are torn down concurrently (the interleaved-dump bug).
  void emit_exit_dump() const noexcept {
    try {
      const std::string report = dump_worker_state();
      std::lock_guard<std::mutex> lock(trace::dump_mutex());
      if (dump_on_exit_ == "1" || dump_on_exit_ == "stderr") {
        std::fputs(report.c_str(), stderr);
      } else if (std::FILE* f = std::fopen(dump_on_exit_.c_str(), "a")) {
        std::fputs(report.c_str(), f);
        std::fclose(f);
      }
    } catch (...) {
      // A post-mortem aid must never turn destruction into a crash.
    }
  }

  // One steal attempt against `victim` with §7 locality accounting: the
  // outcome feeds the per-victim success EWMA that the next pick weighs,
  // and successful steals are classified by the victim's distance tier.
  // With the layer off this is exactly try_steal.
  job* steal_from(std::size_t self, std::size_t victim) {
    trace::emit(trace::event::steal_attempt, victim);
    job* task = try_steal(self, victim);
    trace::emit(task != nullptr ? trace::event::steal_success
                                : trace::event::steal_loss,
                victim);
    if (locality_) {
      note_victim_steal(victim, task != nullptr);
      if (task != nullptr) {
        const locality_tier tier = workers_[self]->victims.tier_of(victim);
        stats::count_locality_steal(static_cast<std::size_t>(tier),
                                    tier < kNearestRemoteTier);
      }
    }
    return task;
  }

  // Folds one steal outcome into `victim`'s success EWMA (permille, shift-3
  // smoothing): how often does stealing from it pay off, for anyone?
  // Thieves race on the slot; a lost update costs one observation, which
  // the EWMA absorbs.
  void note_victim_steal(std::size_t victim, bool success) noexcept {
    auto& ewma = victim_steal_ewma_[victim].get();
    const std::uint32_t prev = ewma.load(std::memory_order_relaxed);
    const std::uint32_t obs = success ? 1000u : 0u;
    ewma.store(prev + (static_cast<std::int32_t>(obs - prev) / 8),
               std::memory_order_relaxed);
  }

  job* steal_once(std::size_t self) {
    if (nworkers_ == 1) return nullptr;
    auto& ws = *workers_[self];
    std::size_t victim;
    if (locality_) {
      // Two-level pick: near-biased tier, then success-weighted victim
      // (victim_select.h). Allocation- and fence-free; the weight functor
      // is one relaxed load per candidate.
      bool explored = false;
      victim = ws.victims.pick(
          ws.rng,
          [this](std::size_t v) {
            return victim_steal_ewma_[v]->load(std::memory_order_relaxed);
          },
          &explored);
      if (explored) stats::count_locality_explore();
    } else {
      // Legacy uniform choice (LCWS_LOCALITY_OFF), bit-for-bit.
      victim = ws.rng.bounded(nworkers_ - 1);
      if (victim >= self) ++victim;  // uniform over the other workers
    }
    return steal_from(self, victim);
  }

  found_task find_task(std::size_t self) {
    // Quiescent point (DESIGN.md §8): between deque operations this worker
    // provably holds no deque-buffer pointer, so announce the epoch. One
    // acquire load + one release store to this worker's own slot — no
    // fence, no CAS — and it unblocks reclamation of storage retired by
    // any grown deque in the pool.
    reclaim_.quiesce(workers_[self]->reader);
    if (job* task = get_local(self)) return {task, false};
    return {steal_once(self), true};
  }

  void execute(job* task) {
    stats::count_task_executed();
    task->execute();
  }

  // Executes a found task, driving the wake chain around stolen ones:
  // before running, a successful steal suggests more exposed work (wake one
  // thief to look); after running, the stolen job is done and its joiner —
  // possibly parked — must notice (wake everyone; steals are rare).
  void run_task(std::size_t self, const found_task& f) {
    if (f.stolen && parking_ && lot_.sleepers() != 0) wake_one(self);
    trace::emit(trace::event::task_begin, f.stolen ? 1 : 0);
    execute(f.task);
    trace::emit(trace::event::task_end);
    if (f.stolen && parking_ && lot_.sleepers() != 0) {
      stats::count_wake(lot_.unpark_all());
    }
  }

  // ---- parking ------------------------------------------------------------

  // Final pre-park sweep: own deque, then one probe of every other worker
  // in index order. Runs after the parking announcement's full barrier, so
  // any work made stealable before a producer could have observed the
  // announcement is found here. Skipped for the mailbox family, whose
  // probes cannot see private stacks anyway and would wake every other
  // (likely parked) victim just to be told "no work"; mailbox discovery
  // relies on push-wakes, targeted request-wakes and the timed backstop.
  found_task park_sweep(std::size_t self) {
    if (job* task = get_local(self)) return {task, false};
    if constexpr (family != sched_family::mailbox) {
      if (locality_) {
        // Nearest-first: the last look before sleeping probes warm caches
        // before cold ones. Covers every other worker exactly once.
        for (const std::uint32_t v : workers_[self]->victims.order()) {
          if (job* task = steal_from(self, v)) return {task, true};
        }
      } else {
        for (std::size_t v = 0; v < nworkers_; ++v) {
          if (v == self) continue;
          if (job* task = steal_from(self, v)) return {task, true};
        }
      }
    }
    return {};
  }

  // One parking episode for an idle worker: announce, sweep, sleep with an
  // adaptive timed backstop. Returns a task if the sweep found one (the
  // caller executes it). `waited` (join loop) aborts the episode when the
  // joined job completes.
  found_task park_idle(std::size_t self, const job* waited) {
    lot_.announce(self);
    if (found_task f = park_sweep(self)) {
      lot_.cancel(self);
      return f;
    }
    if (shutdown_.load(std::memory_order_acquire) ||
        !active_.load(std::memory_order_acquire) ||
        (waited != nullptr && waited->is_done())) {
      lot_.cancel(self);
      return {};
    }
    if constexpr (family == sched_family::user_space ||
                  family == sched_family::signal) {
      // Never park targeted: the sweep proved our deque empty, so a stale
      // targeted flag is vacuous — clear it so it cannot suppress
      // notifications once we hold work again.
      targeted_[self]->store(false, std::memory_order_relaxed);
    } else if constexpr (family == sched_family::mailbox) {
      // Never park targeted, mailbox edition: answer a request that landed
      // after the sweep's poll (with null — our stack is provably empty)
      // instead of leaving the thief to its retract timeout. A request
      // arriving after this gate still terminates: the thief retracts
      // after its bounded spin.
      auto& d = workers_[self]->deque;
      if (d.has_pending_request()) {
        d.poll();
        lot_.cancel(self);
        return {};
      }
    }
    auto& ws = *workers_[self];
    // Last quiesce before a potentially long sleep: a parked reader merely
    // delays reclamation, but there is no reason to park one epoch behind.
    // This is also a trace/hw boundary — the per-find_task quiesce is far
    // too hot to trace, but this cold one marks the steal->park phase
    // edge, and the perf read here costs one syscall before a sleep.
    reclaim_.quiesce(ws.reader);
    trace::emit(trace::event::quiesce, self);
    sample_hw(self);
    stats::count_park();
    stopwatch sw;
    const bool woken =
        lot_.park(self, std::chrono::microseconds(ws.park_timeout_us));
    stats::count_idle_ns(sw.elapsed_ns());
    ws.park_timeout_us =
        woken ? kParkMinUs
              : std::min(ws.park_timeout_us * 2, kParkMaxUs);
    return {};
  }

  // ---- join / worker loop --------------------------------------------------

  // Owner fast path (DESIGN.md §4 item 10): once left() has returned, the
  // bottom of this worker's deque holds `waited` unless a thief took it, so
  // one get_local() usually pops it back and it runs right here, with the
  // counter bump and trace events run_task would emit. That skips
  // find_task's quiesce (a skipped quiesce only delays reclamation), the
  // found_task round trip and the help loop's setup and exit acquire (this
  // thread published done itself).
  void join(std::size_t self, job& waited) {
    job* task = get_local(self);
    if (task == &waited) [[likely]] {
      trace::emit(trace::event::task_begin, 0);
      execute(task);
      trace::emit(trace::event::task_end);
      return;
    }
    help_join(self, waited, task);
  }

  // Help-first join: runs what the fast path popped instead of `waited`
  // (wsmult's owner walk past a lost claim can return an older task), then
  // executes whatever the scheduler hands this worker until `waited`, which
  // a thief took, is done. Kept out of join() so the fast path stays small:
  // with the loop inline, GCC calls get_local() out of line from both and
  // the fork got slower than before (EXPERIMENTS.md).
  void help_join(std::size_t self, job& waited, job* popped) {
    if (popped != nullptr) run_task(self, {popped, false});
    backoff bo;
    std::uint32_t failures = 0;
    // Relaxed peek while helping; the acquire that orders the joined task's
    // writes is paid once, on exit (see the fence below), instead of on
    // every spin iteration.
    while (!waited.is_done_relaxed()) {
      if (found_task f = find_task(self)) {
        run_task(self, f);
        bo.reset();
        failures = 0;
      } else {
        stats::count_idle_loop();
        ++failures;
        if (parking_ && failures >= kParkAfterFailures) {
          if (found_task f = park_idle(self, &waited)) {
            run_task(self, f);
            bo.reset();
            failures = 0;
          }
          // Fruitless episode: keep `failures` saturated — one probe per
          // wake, then straight back to a (longer) sleep.
        } else {
          bo.pause();
        }
      }
    }
    // One acquire re-load pairs with the completing worker's release store
    // (an acquire *fence* would do the same with one fewer load, but TSan
    // cannot model fences — gcc's -Wtsan flags it — and this is the cold
    // exit path).
    (void)waited.is_done();
  }

  void worker_loop(std::size_t id) {
    register_worker(id);
    name_this_thread("lcws-w" + std::to_string(id));
    // Best-effort pinning (§7): a failure — restricted container mask,
    // offline CPU — leaves the worker floating; the victim table built
    // from the *intended* placement stays a usable heuristic.
    if (locality_ && cpu_of_worker_[id] >= 0) {
      pin_this_thread(static_cast<std::size_t>(cpu_of_worker_[id]));
    }
    ready_.fetch_add(1, std::memory_order_release);
    backoff bo;
    std::uint32_t failures = 0;
    while (true) {
      if (shutdown_.load(std::memory_order_acquire)) break;
      if (!active_.load(std::memory_order_acquire)) {
        // Blocking between runs: quiesce first so storage retired by the
        // previous computation can be reclaimed while we sleep. Cold, so
        // also a trace/hw sample boundary.
        reclaim_.quiesce(workers_[id]->reader);
        trace::emit(trace::event::quiesce, id);
        sample_hw(id);
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait(lock, [this] {
          return active_.load(std::memory_order_acquire) ||
                 shutdown_.load(std::memory_order_acquire);
        });
        bo.reset();
        failures = 0;
        continue;
      }
      if (found_task f = find_task(id)) {
        run_task(id, f);
        bo.reset();
        failures = 0;
        continue;
      }
      stats::count_idle_loop();
      ++failures;
      if (parking_ && failures >= kParkAfterFailures) {
        if (found_task f = park_idle(id, nullptr)) {
          run_task(id, f);
          bo.reset();
          failures = 0;
        }
        continue;
      }
      bo.pause();
    }
    finalize_worker_hw(id);
    unregister_worker();
  }

  const std::size_t nworkers_;
  // §8 growable-deque plumbing: the domain hands out every worker's reader
  // slot (worker_state construction happens in the constructor body, after
  // all members are initialized).
  reclaim_domain reclaim_;
  std::vector<std::unique_ptr<worker_state>> workers_;
  std::vector<cache_aligned<std::atomic<bool>>> targeted_;
  // §7 per-victim steal-success EWMA (permille) that victim_selector::pick
  // weighs; written only while locality_ is on (note_victim_steal).
  std::vector<cache_aligned<std::atomic<std::uint32_t>>> victim_steal_ewma_;
  mutable std::vector<cache_aligned<stats::op_counters>> counters_;
  std::vector<std::thread> threads_;
  parking_lot lot_;
  const bool parking_;
  const locality_config loc_cfg_;    // §7 knobs (LCWS_LOCALITY_OFF, LCWS_PIN)
  const bool locality_;              // §7 master switch (LCWS_LOCALITY_OFF)
  const std::optional<std::uint64_t> seed_;  // LCWS_SEED; nullopt = legacy
  cpu_topology topo_;                // probed once when locality_ is on
  std::vector<int> cpu_of_worker_;   // -1 = unpinned
  saved_affinity saved_affinity_;    // worker 0's pre-pin mask
  const std::string dump_on_exit_;  // LCWS_DUMP_ON_EXIT; empty = off
  std::unique_ptr<watchdog> dog_;  // LCWS_WATCHDOG_MS; null when disabled
  trace::tracer tracer_;    // §10 event rings (LCWS_TRACE; empty = off)
  const bool hw_enabled_ = stats::perf_env_enabled();  // LCWS_PERF
  std::vector<cache_aligned<hw_slot>> hw_slots_;  // §10 per-worker samples

  std::atomic<std::size_t> ready_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> active_{false};
  // §11 per-run cancellation token; deliberately adjacent to active_ (both
  // read-mostly, loaded together at every pardo).
  std::atomic<bool> cancelled_{false};
  const std::uint64_t run_timeout_ms_ = env_run_timeout_ms();
  std::mutex mutex_;
  std::condition_variable idle_cv_;
  const std::thread::id owner_;

  // LCWS_RUN_TIMEOUT_MS: a global deadline wrapped around every top-level
  // run(); 0 (unset/garbage) disables.
  static std::uint64_t env_run_timeout_ms() noexcept {
    const char* s = std::getenv("LCWS_RUN_TIMEOUT_MS");
    if (s == nullptr || *s == '\0') return 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    return (end == s || *end != '\0') ? 0 : static_cast<std::uint64_t>(v);
  }
};

using ws_scheduler = scheduler<ws_policy>;
using uslcws_scheduler = scheduler<uslcws_policy>;
using signal_scheduler = scheduler<signal_policy>;
using conservative_scheduler = scheduler<conservative_policy>;
using expose_half_scheduler = scheduler<expose_half_policy>;
using private_deques_scheduler = scheduler<private_deques_policy>;
using lace_scheduler = scheduler<lace_policy>;
using wsmult_scheduler = scheduler<wsmult_policy>;

}  // namespace lcws
