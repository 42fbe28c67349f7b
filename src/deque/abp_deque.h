// The baseline Work Stealing deque: a bounded Arora–Blumofe–Plaxton (ABP)
// deque with an age/tag word, in the exact shape used by Parlay's default
// scheduler (the paper's "WS" baseline).
//
// The synchronization profile this baseline exhibits — and that Figures 3a
// and 8a of the paper divide by — is:
//   * push_bottom: one seq_cst fence (publishes the new bottom to thieves),
//   * pop_bottom:  one seq_cst fence (the Dekker-style owner/thief
//     handshake Attiya et al. prove unavoidable for fully concurrent
//     deques) plus a CAS when racing for the last task,
//   * pop_top:     one CAS.
//
// Storage is the deque_storage every growable deque shares (reclaim.h,
// DESIGN.md §8): a push past the end doubles the buffer on a slow path,
// release-publishes the replacement, and retires the old storage through
// the reclaim_domain; growth adds no fences or CAS to the profile above.
// pop_top loads the buffer pointer after its acquire of bot, whose
// release store is sequenced after any growth covering [0, bot) — so the
// buffer seen always spans the index about to be read.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

#include "deque/deque_common.h"
#include "deque/reclaim.h"
#include "stats/counters.h"
#include "support/align.h"

namespace lcws {

template <typename T>
class abp_deque {
  using buffer_t = deque_buffer<T>;

 public:
  explicit abp_deque(std::size_t capacity = default_deque_capacity,
                     reclaim_domain* domain = nullptr)
      : store_(capacity, domain) {}

  abp_deque(const abp_deque&) = delete;
  abp_deque& operator=(const abp_deque&) = delete;

  // Owner only.
  void push_bottom(T* task) {
    const auto b = bot_.load(std::memory_order_relaxed);
    buffer_t* buf = store_.buffer();
    if (static_cast<std::size_t>(b) >= buf->size) [[unlikely]] {
      buf = store_.grow(b);
    }
    buf->slots()[static_cast<std::size_t>(b)].store(
        task, std::memory_order_relaxed);
    // Release: a thief that acquire-reads the new bot must see the slot
    // (and the job payload written before the push). Free on x86.
    bot_.store(b + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    stats::count_fence();
    store_.note_depth(b + 1);
    stats::count_push();
  }

  // Owner only. Returns nullptr when the deque is empty.
  T* pop_bottom() {
    auto b = bot_.load(std::memory_order_relaxed);
    if (b == 0) {
      store_.collect();
      return nullptr;
    }
    --b;
    bot_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    stats::count_fence();
    T* task = store_.buffer()
                  ->slots()[static_cast<std::size_t>(b)]
                  .load(std::memory_order_relaxed);
    auto old_age = unpack_age(age_.load(std::memory_order_relaxed));
    if (b > static_cast<std::int64_t>(old_age.top)) {
      stats::count_pop_private();
      return task;
    }
    // Zero or one task left: reset the deque, racing thieves for the last
    // task through the age CAS. The reset doubles as a collection point
    // for retired buffers.
    bot_.store(0, std::memory_order_relaxed);
    const age_t new_age{old_age.tag + 1, 0};
    bool won = false;
    if (b == static_cast<std::int64_t>(old_age.top)) {
      auto expected = pack_age(old_age);
      won = age_.compare_exchange_strong(expected, pack_age(new_age),
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed);
      stats::count_cas(won);
    }
    if (!won) {
      age_.store(pack_age(new_age), std::memory_order_release);
      task = nullptr;
    } else {
      stats::count_pop_private();
    }
    store_.collect();
    return task;
  }

  // Thieves (and, in principle, anyone). One CAS per attempt. The buffer
  // pointer is loaded after the acquire of bot: the release store that
  // raised bot past old_age.top is sequenced after the growth that made
  // the buffer cover that index, so the buffer read here spans it.
  steal_result<T> pop_top() {
    stats::count_steal_attempt();
    const auto old_age = unpack_age(age_.load(std::memory_order_acquire));
    const auto b = bot_.load(std::memory_order_acquire);
    if (b <= static_cast<std::int64_t>(old_age.top)) {
      return {steal_status::empty, nullptr};
    }
    buffer_t* buf = store_.buffer(std::memory_order_acquire);
    if (old_age.top >= buf->size) [[unlikely]] {
      // Defensive: mutually stale index/buffer snapshot. Treat as a lost
      // race rather than reading out of bounds.
      stats::count_steal_abort();
      return {steal_status::aborted, nullptr};
    }
    T* task = buf->slots()[old_age.top].load(std::memory_order_relaxed);
    age_t new_age = old_age;
    ++new_age.top;
    auto expected = pack_age(old_age);
    const bool won = age_.compare_exchange_strong(
        expected, pack_age(new_age), std::memory_order_seq_cst,
        std::memory_order_relaxed);
    stats::count_cas(won);
    if (won) {
      stats::count_steal_success();
      return {steal_status::stolen, task};
    }
    stats::count_steal_abort();
    return {steal_status::aborted, nullptr};
  }

  // Racy size estimate (harness/diagnostics only).
  std::int64_t size_estimate() const noexcept {
    const auto b = bot_.load(std::memory_order_relaxed);
    const auto t = static_cast<std::int64_t>(
        unpack_age(age_.load(std::memory_order_relaxed)).top);
    return b > t ? b - t : 0;
  }

  bool empty_estimate() const noexcept { return size_estimate() == 0; }

  std::size_t capacity() const noexcept { return store_.capacity(); }
  std::uint64_t grow_count() const noexcept { return store_.grow_count(); }
  std::int64_t high_water_mark() const noexcept {
    return store_.high_water_mark();
  }
  std::uint64_t retired_buffers() const noexcept {
    return store_.retired_buffers();
  }

  // Racy one-line snapshot for watchdog/post-mortem dumps.
  std::string debug_string() const {
    const auto a = unpack_age(age_.load(std::memory_order_relaxed));
    return "top=" + std::to_string(a.top) +
           " bot=" + std::to_string(bot_.load(std::memory_order_relaxed)) +
           " tag=" + std::to_string(a.tag) +
           " cap=" + std::to_string(capacity()) +
           " hwm=" + std::to_string(high_water_mark()) +
           " grows=" + std::to_string(grow_count()) +
           " retired=" + std::to_string(retired_buffers());
  }

 private:
  alignas(cache_line_size) std::atomic<std::int64_t> bot_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> age_{0};
  deque_storage<T> store_;
};

}  // namespace lcws
