// The unit of scheduling: a type-erased, stack-allocatable job.
//
// Following Parlay's design, a fork allocates the forked branch as a
// `lambda_job` on the forking function's stack frame, pushes a pointer to it
// onto the worker's deque, and on join waits for `done`. The job object
// outlives every access because the forker cannot return before observing
// done == true.
//
// Exception contract: a job's payload may throw. The wrapper captures the
// exception into the job (`std::exception_ptr`) *before* completion is
// published, so the thread that executes a stolen task never unwinds the
// scheduler's loop — the exception travels through the job object and
// rethrows on the joining (spawning) side. The capture lives in
// lambda_job::invoke, not job::execute, so payloads that are provably
// noexcept compile with no try/catch at all and execute() itself can stay
// on the signal-safe noexcept paths.
#pragma once

#include <atomic>
#include <exception>
#include <type_traits>
#include <utility>

namespace lcws {

class job {
 public:
  using run_fn = void (*)(job*);

  explicit job(run_fn fn) noexcept : fn_(fn) {}
  job(const job&) = delete;
  job& operator=(const job&) = delete;

  // Runs the payload, then publishes completion. The release store is the
  // last access to *this: once a joiner observes done, the frame that owns
  // this job may unwind. Payload exceptions are captured by the wrapper
  // (set_exception) before this store, so they are visible to any thread
  // that acquire-observed done.
  void execute() {
    fn_(this);
    done_.store(true, std::memory_order_release);
  }

  bool is_done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  // Relaxed peek for spin loops: callers must issue an acquire fence (or an
  // is_done() re-load) after observing true and before touching anything
  // the task wrote. Lets the join loop pay its acquire once, on exit,
  // instead of on every iteration.
  bool is_done_relaxed() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

  // Records the payload's in-flight exception. Called on the executing
  // thread, from inside fn_, strictly before execute() publishes done —
  // which is what makes the plain (non-atomic) eptr_ safely readable by
  // the joiner afterwards.
  void set_exception(std::exception_ptr e) noexcept { eptr_ = std::move(e); }

  // Joiner side; only meaningful after is_done() returned true.
  bool has_exception() const noexcept { return eptr_ != nullptr; }

  // Rethrows the captured exception at the join point, if any.
  void rethrow_if_exception() {
    if (eptr_ != nullptr) std::rethrow_exception(eptr_);
  }

 private:
  run_fn fn_;
  std::atomic<bool> done_{false};
  std::exception_ptr eptr_;  // written pre-done_ by the executor only
};

// Wraps a callable (typically a lambda capturing by reference) as a job.
template <typename F>
class lambda_job : public job {
 public:
  static_assert(std::is_invocable_v<F&>);

  explicit lambda_job(F& f) noexcept : job(&invoke), f_(f) {}

 private:
  static void invoke(job* base) {
    auto* self = static_cast<lambda_job*>(base);
    if constexpr (std::is_nothrow_invocable_v<F&>) {
      self->f_();
    } else {
      try {
        self->f_();
      } catch (...) {
        base->set_exception(std::current_exception());
      }
    }
  }
  F& f_;
};

}  // namespace lcws
