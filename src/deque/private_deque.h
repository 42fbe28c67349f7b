// Private deques with explicit steal-request mailboxes — the related-work
// baseline of Acar, Charguéraud & Rainey (PPoPP '13) that the paper's
// Section 2 contrasts LCWS against.
//
// The deque is entirely private: a plain std::deque the owner uses as a
// call stack, with zero atomics on push/pop except one relaxed load that
// polls for an incoming steal request. Thieves never touch the deque;
// they post a request cell and wait for the victim to transfer a task (or
// a null "no work" answer) through it. Like USLCWS — and unlike the
// paper's signal-based LCWS — requests are only served at task
// granularity, so a long sequential task blocks load balancing (the
// weakness Acar et al. worked around with a periodic interrupter).
//
// Protocol (one outstanding request per victim):
//   thief:  box = sentinel; CAS victim.request (null -> &box); spin on box;
//           on timeout, CAS victim.request (&box -> null) to retract —
//           if that CAS fails the victim is already answering, keep
//           spinning (the answer is imminent).
//   victim: poll(): if request != null, take the oldest task (or null),
//           CAS request (r -> null); on success publish through r->box;
//           on failure (thief retracted) put the task back.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <string>

#include "deque/deque_common.h"
#include "stats/counters.h"
#include "support/align.h"

namespace lcws {

// A thief's one-shot answer box. `pending` marks "no answer yet"; the
// victim stores either a task pointer or nullptr ("no work").
template <typename T>
struct alignas(cache_line_size) steal_box {
  static T* pending() noexcept {
    return reinterpret_cast<T*>(static_cast<std::uintptr_t>(1));
  }
  std::atomic<T*> answer{pending()};
};

template <typename T>
class private_deque {
 public:
  // Storage is a std::deque that grows on its own; the hint and domain
  // only keep the constructor and capacity() signatures uniform with the
  // other deques — nothing here is ever retired.
  explicit private_deque(std::size_t capacity_hint = 0,
                         reclaim_domain* /*domain*/ = nullptr)
      : capacity_hint_(capacity_hint) {}

  std::size_t capacity() const noexcept { return capacity_hint_; }

  private_deque(const private_deque&) = delete;
  private_deque& operator=(const private_deque&) = delete;

  // ---- owner side ---------------------------------------------------------

  void push_bottom(T* task) {
    stack_.push_back(task);
    stats::count_push();
    poll();
  }

  T* pop_bottom() {
    poll();
    if (stack_.empty()) return nullptr;
    T* task = stack_.back();
    stack_.pop_back();
    stats::count_pop_private();
    return task;
  }

  // Serves at most one pending steal request (called from push/pop and
  // from the scheduler's idle loop).
  void poll() {
    steal_box<T>* request = request_.load(std::memory_order_acquire);
    if (request == nullptr) return;
    T* give = nullptr;
    if (!stack_.empty()) {
      give = stack_.front();  // oldest task, like a top-side steal
      stack_.pop_front();
    }
    if (request_.compare_exchange_strong(request, nullptr,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      stats::count_cas(true);
      request->answer.store(give, std::memory_order_release);
    } else {
      // The thief retracted between our load and the CAS: keep the task.
      stats::count_cas(false);
      if (give != nullptr) stack_.push_front(give);
    }
  }

  // ---- thief side -----------------------------------------------------------

  // Posts a steal request; false if another thief's request is pending.
  bool post_request(steal_box<T>* box) {
    steal_box<T>* expected = nullptr;
    const bool ok = request_.compare_exchange_strong(
        expected, box, std::memory_order_acq_rel, std::memory_order_acquire);
    stats::count_cas(ok);
    return ok;
  }

  // Attempts to withdraw a posted request; false means the victim is
  // already answering and the box will be filled shortly.
  bool retract_request(steal_box<T>* box) {
    steal_box<T>* expected = box;
    const bool ok = request_.compare_exchange_strong(
        expected, nullptr, std::memory_order_acq_rel,
        std::memory_order_acquire);
    stats::count_cas(ok);
    return ok;
  }

  // ---- diagnostics ----------------------------------------------------------

  std::size_t size() const noexcept { return stack_.size(); }
  bool has_pending_request() const noexcept {
    return request_.load(std::memory_order_relaxed) != nullptr;
  }

  // Watchdog/post-mortem snapshot. Deliberately reports only the atomic
  // request slot: stack_ is a plain std::deque owned by the worker, so a
  // concurrent size() from the monitor thread would be a data race.
  std::string debug_string() const {
    return std::string("mailbox pending_request=") +
           (has_pending_request() ? "1" : "0");
  }

 private:
  const std::size_t capacity_hint_;
  std::deque<T*> stack_;
  alignas(cache_line_size) std::atomic<steal_box<T>*> request_{nullptr};
};

}  // namespace lcws
