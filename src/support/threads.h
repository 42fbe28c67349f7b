// Thread identity, naming and (best-effort) pinning.
//
// Every scheduler worker registers itself here so that the split deque's
// SIGUSR1 exposure handler — which runs with no arguments on whatever
// thread the kernel delivers to — can find the per-thread scheduler state.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstddef>
#include <string>

namespace lcws {

// Scheduling identifier of the calling thread within its worker pool, or
// npos_worker when the thread is not a pool worker (e.g. the main thread
// before it enters a pool).
inline constexpr std::size_t npos_worker = static_cast<std::size_t>(-1);

// Thread-local worker id, set by the worker pool on entry. Defined here so
// every pardo reads it with one TLS load instead of a call into threads.cpp.
namespace detail {
inline thread_local std::size_t tl_worker_id = npos_worker;
}  // namespace detail

inline std::size_t this_worker_id() noexcept { return detail::tl_worker_id; }
inline void set_this_worker_id(std::size_t id) noexcept {
  detail::tl_worker_id = id;
}

// Best-effort: pins the calling thread to the given logical CPU. Returns
// false (without failing the program) when pinning is not possible — e.g.
// inside containers with restricted affinity masks.
bool pin_this_thread(std::size_t cpu) noexcept;

// Saved CPU-affinity mask, so a pool that pins its constructing thread
// (locality-aware pinning, DESIGN.md §7) can put it back at destruction —
// the caller's thread outlives the pool and must not stay pinned.
struct saved_affinity {
  cpu_set_t set;
  bool valid = false;
};

saved_affinity save_this_thread_affinity() noexcept;
void restore_this_thread_affinity(const saved_affinity& saved) noexcept;

// Best-effort thread naming for debuggers/profilers (<=15 chars on Linux).
void name_this_thread(const std::string& name) noexcept;

}  // namespace lcws
