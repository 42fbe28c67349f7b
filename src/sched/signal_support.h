// Process-wide plumbing for the signal-based LCWS schedulers (Section 4).
//
// A thief that finds only private work in a victim's deque sends the victim
// SIGUSR1 (Listing 3). The handler runs on the victim's thread and must
// transfer work to the public part of *that thread's* deque, so the hook it
// invokes is stored in thread-local state that each worker registers on
// entry.
//
// The handler is async-signal-safe by construction: the registered hooks
// only load/store lock-free std::atomic fields of the handler thread's own
// split deque (see split_deque.h). Accessing thread_local storage from a
// signal handler is unspecified by the standard but reliable on
// Linux/glibc, which is the platform the paper targets (Debian 11).
#pragma once

#include <pthread.h>
#include <signal.h>

namespace lcws::detail {

// Signature of a work-exposure hook: called with the context registered by
// the thread the signal was delivered to.
using exposure_hook = void (*)(void*) noexcept;

// The signal used for exposure requests.
int exposure_signal() noexcept;

// Installs the process-wide SIGUSR1 handler (idempotent, thread-safe).
void install_exposure_handler();

// Registers/clears the calling thread's exposure hook.
void set_exposure_hook(exposure_hook hook, void* context) noexcept;
void clear_exposure_hook() noexcept;

// Sends an exposure request to `target`, making up to 3 pthread_kill
// attempts. For SIGUSR1 pthread_kill can fail only with ESRCH (the thread
// already exited), which is permanent and returns at once: a pending
// non-real-time signal is merged with the new one, not queued, so EAGAIN
// cannot occur. The retries, paced by the shared backoff, therefore run
// only when the fault injector's signal_send site fails an attempt.
// Returns false — and records the event in the `signals_failed` stats
// counter — only when delivery failed; the caller then clears the
// victim's targeted flag so a later thief can try again.
bool send_exposure_request(pthread_t target) noexcept;

// Test hook: number of times the handler ran in this process.
unsigned long long handler_invocations() noexcept;

}  // namespace lcws::detail
