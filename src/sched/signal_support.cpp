#include "sched/signal_support.h"

#include <errno.h>
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "stats/counters.h"
#include "support/backoff.h"
#include "support/fault_injection.h"

namespace lcws::detail {
namespace {

struct hook_slot {
  exposure_hook hook = nullptr;
  void* context = nullptr;
};

thread_local hook_slot tl_hook;

std::atomic<unsigned long long> g_handler_runs{0};

void exposure_signal_handler(int /*signo*/) {
  // No errno-touching calls in here; the hooks only operate on lock-free
  // atomics of this thread's own deque, and the fault-injection probes on
  // atomics and this thread's own TLS.
  g_handler_runs.fetch_add(1, std::memory_order_relaxed);
  if (fi::inject(fi::site::exposure_drop)) {
    // Injected fault: the signal is delivered but the exposure is lost —
    // models a handler pre-empted by thread exit or a swallowed signal.
    // The protocol must survive on truthfulness grounds alone: the victim
    // keeps its work and executes it itself.
    return;
  }
  if (fi::inject(fi::site::exposure_delay)) {
    // Injected fault: stretch the window between signal delivery and the
    // exposure store, widening the §4 pop_bottom/expose race that the
    // decrement-first pop exists to close. A bounded busy spin is the only
    // async-signal-safe delay.
    for (int i = 0; i < 20000; ++i) cpu_relax();
  }
  const hook_slot slot = tl_hook;
  if (slot.hook != nullptr) slot.hook(slot.context);
}

}  // namespace

int exposure_signal() noexcept { return SIGUSR1; }

void install_exposure_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action {};
    action.sa_handler = &exposure_signal_handler;
    sigemptyset(&action.sa_mask);
    // SA_RESTART: an exposure request must not make syscalls in user tasks
    // fail with EINTR.
    action.sa_flags = SA_RESTART;
    if (sigaction(exposure_signal(), &action, nullptr) != 0) {
      std::perror("lcws: sigaction(SIGUSR1)");
      std::abort();
    }
  });
}

void set_exposure_hook(exposure_hook hook, void* context) noexcept {
  tl_hook = hook_slot{hook, context};
}

void clear_exposure_hook() noexcept { tl_hook = hook_slot{}; }

bool send_exposure_request(pthread_t target) noexcept {
  constexpr int kAttempts = 3;  // the first send plus two retries
  // pthread_kill returns the error instead of setting errno, so the send
  // itself is errno-clean; the backoff below may yield(), whose syscall
  // can clobber errno, so save/restore it — this path runs on thief
  // threads, potentially between a user task's syscall and its errno
  // check.
  const int saved_errno = errno;
  backoff bo(/*spins_before_yield=*/4);
  for (int attempts = 1;; ++attempts) {
    const int rc = fi::inject(fi::site::signal_send)
                       ? EAGAIN
                       : pthread_kill(target, exposure_signal());
    if (rc == 0) {
      errno = saved_errno;
      return true;
    }
    // ESRCH (the target thread is gone) is permanent and skips the
    // retries. It is also the only error pthread_kill can report for
    // SIGUSR1, so the retries run only under the signal_send fault site.
    if (rc == ESRCH || attempts >= kAttempts) break;
    bo.pause();
  }
  // Not silent: the caller observes `false` (and un-targets the victim),
  // and the profile records the delivery failure.
  stats::count_signal_failed();
  errno = saved_errno;
  return false;
}

unsigned long long handler_invocations() noexcept {
  return g_handler_runs.load(std::memory_order_relaxed);
}

}  // namespace lcws::detail
