// Fully fence-free work stealing with multiplicity (the paper's "WS-mult"
// endpoint, after Castañeda & Piña, "Fully Read/Write Fence-Free
// Work-Stealing with Multiplicity" — see PAPERS.md and DESIGN.md §9).
//
// Every deque in this library so far pays for exactly-once extraction with
// synchronization on the hot path: the ABP baseline fences in push/pop and
// CASes in pop_top; the split deques fence per exposure round and CAS per
// steal. This deque pays *nothing* there: owner push_bottom/pop_bottom and
// thief pop_top are fence-free AND CAS-free. The price is relaxed
// semantics — two extractors may pick up the same index (multiplicity) —
// which is made safe by a claim that guarantees a twice-extracted task
// still *runs* exactly once:
//
//   The claim word IS the slot. Extraction (owner or thief) is a single
//   `exchange` of the slot to a claimed sentinel. Whoever reads back the
//   task pointer owns it; everyone else reads the sentinel and treats the
//   extraction as empty. Three designs were rejected to get here:
//     * a claimed_ flag on `job` — memory-unsafe: a slow thief can hold a
//       stale job pointer after the claimed winner ran the job, the join
//       completed, and the spawn frame (which owns the job) unwound; its
//       exchange would touch freed stack. The claim must be resolved
//       *before* dereferencing the task pointer, in deque-owned storage.
//     * a claim array inside the growable buffer — the growth prefix-copy
//       races concurrent claim RMWs and can lose a claim (two winners).
//       Fused into the slot, growth copies BY exchanging the sentinel into
//       the old slot, so the per-slot RMW total order arbitrates between
//       the copier and any concurrent extractor (exactly one sees the
//       task).
//     * a never-reset side chunk table — reclaiming it needs the same
//       grace periods as the buffers; fusing claim and slot gets the
//       reclamation for free from deque/reclaim.h.
//
// Index protocol (all plain loads/stores, no RMW except the slot claim):
//   * push_bottom: release-store task into slots[bot], release-store
//     bot+1. No fence (the ABP baseline fences here).
//   * pop_bottom: walk bot downward; each visited index is claimed with
//     one slot exchange. A lost claim (a thief got there) just continues
//     the walk — each index is visited at most once by the owner, so the
//     walk is amortized O(1) per push. No fence, no CAS (the baseline
//     pays a Dekker fence plus a last-task CAS here).
//   * pop_top: read top (relaxed) and bot (acquire); if top < bot, claim
//     slots[top] with one exchange and plain-store top+1. No CAS — two
//     thieves can both read the same top and both store top+1; the slot
//     exchange picks the single winner and the loser advances top anyway
//     (healing), counting a claims_lost/dup_extraction.
//
// Why arbitrary staleness is safe: thieves read top/bot relaxed/acquire
// and may act on values from any point in the past (there is no CAS to
// invalidate a stale snapshot). Every consequence funnels into the slot
// exchange, and RMWs are required to read the *latest* value in the
// slot's modification order — so a stale extractor can only (a) lose
// against the sentinel, (b) read nullptr from a never-pushed slot
// (reported as an aborted steal; the sentinel it left behind is simply
// overwritten by the owner's next push to that index), or (c) win a live
// task that the current window legitimately offers — never touch freed
// memory and never duplicate an execution. Stale top stores can regress
// or overshoot top (the paper's "backwards top" anomaly); both are
// liveness noise that the owner repairs by zeroing top when it drains the
// deque, never safety: claimed slots make re-offered indices inert.
//
// Memory-ordering sketch (pure release/acquire — TSan-verifiable):
//   payload visibility: the owner's slot store is a release; a winning
//     exchange is an acquire that reads-from it (directly, or through the
//     release-chain of a growth copy), so the job payload written before
//     push_bottom happens-before the winner's execution.
//   buffer lifetime: identical to the other growable deques — thieves
//     load buf after their acquire of bot, growth release-publishes the
//     replacement, and retired buffers are freed through reclaim_domain's
//     grace period (DESIGN.md §8). A stale in-flight thief bounds-checks
//     its index against the buffer it actually holds.
//
// Counters: the identity `steals == useful_steals + claims_lost` holds
// for the thief side (a "steal" is any claim arbitration on an index the
// thief's snapshot said was occupied); the exactly-once balance becomes
// `pushes == pops_private + useful_steals`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "deque/deque_common.h"
#include "deque/reclaim.h"
#include "stats/counters.h"
#include "support/align.h"
#include "support/fault_injection.h"

namespace lcws {

template <typename T>
class wsmult_deque {
  using buffer_t = deque_buffer<T>;

 public:
  explicit wsmult_deque(std::size_t capacity = default_deque_capacity,
                        reclaim_domain* domain = nullptr)
      : store_(capacity, domain) {}

  wsmult_deque(const wsmult_deque&) = delete;
  wsmult_deque& operator=(const wsmult_deque&) = delete;

  // Owner only. Fence-free, CAS-free.
  void push_bottom(T* task) {
    const auto b = bot_.load(std::memory_order_relaxed);
    buffer_t* buf = store_.buffer();
    if (static_cast<std::size_t>(b) >= buf->size) [[unlikely]] {
      buf = store_.grow(b, claim_copy{});
    }
    // Release: a thief whose claim exchange reads this pointer — even one
    // that reached the slot through a stale index before bot is bumped —
    // must see the job payload written before the push.
    buf->slots()[static_cast<std::size_t>(b)].store(
        task, std::memory_order_release);
    bot_.store(b + 1, std::memory_order_release);
    store_.note_depth(b + 1);
    stats::count_push();
  }

  // Owner only. Fence-free, CAS-free; one slot exchange per index visited
  // (each index at most once ever). Returns nullptr when drained.
  T* pop_bottom() {
    auto b = bot_.load(std::memory_order_relaxed);
    buffer_t* buf = store_.buffer();
    while (b > 0) {
      --b;
      bot_.store(b, std::memory_order_relaxed);
      if (fi::inject(fi::site::wsmult_dup)) grow_race_pause();
      T* task = buf->slots()[static_cast<std::size_t>(b)].exchange(
          claimed(), std::memory_order_acq_rel);
      if (task != claimed() && task != nullptr) {
        stats::count_pop_private();
        store_.collect();
        return task;
      }
      // A thief claimed this index first (its top store may still be in
      // flight — that is the multiplicity window). Keep walking down.
      stats::count_dup_extraction();
    }
    drain_reset();
    store_.collect();
    return nullptr;
  }

  // Thieves. Fence-free, CAS-free: one slot exchange decides ownership.
  steal_result<T> pop_top() {
    stats::count_steal_attempt();
    const auto t = top_.load(std::memory_order_relaxed);
    const auto b = bot_.load(std::memory_order_acquire);
    if (t >= b || t < 0) {
      return {steal_status::empty, nullptr};
    }
    buffer_t* buf = store_.buffer(std::memory_order_acquire);
    if (static_cast<std::size_t>(t) >= buf->size) [[unlikely]] {
      // Mutually stale index/buffer snapshot; fail the attempt rather
      // than read out of bounds.
      stats::count_steal_abort();
      return {steal_status::aborted, nullptr};
    }
    // Fault site: stall between snapshot and claim, and (on the winning
    // path) suppress the top advancement — modelling the stalled thief
    // whose top store is delayed indefinitely, which forces the next
    // extractor onto the same index so duplicate extraction actually
    // happens and the claim must resolve it.
    const bool stall = fi::inject(fi::site::wsmult_dup);
    if (stall) grow_race_pause();
    T* task = buf->slots()[static_cast<std::size_t>(t)].exchange(
        claimed(), std::memory_order_acq_rel);
    if (task == nullptr) {
      // Never-pushed slot: only reachable through a stale bot from a
      // previous generation. The sentinel we left is overwritten by the
      // owner's next push to this index; do not touch top (our index may
      // be far beyond the live window).
      stats::count_steal_abort();
      return {steal_status::aborted, nullptr};
    }
    if (task != claimed()) {
      if (!stall) top_.store(t + 1, std::memory_order_relaxed);
      stats::count_steal_success();
      stats::count_useful_steal();
      return {steal_status::stolen, task};
    }
    // Duplicate extraction: someone else claimed this index. Advance top
    // past the dead index regardless (healing the stalled winner's
    // missing store) and report an unsuccessful claim.
    top_.store(t + 1, std::memory_order_relaxed);
    stats::count_steal_success();
    stats::count_claim_lost();
    stats::count_dup_extraction();
    return {steal_status::aborted, nullptr};
  }

  // Racy size estimate (harness/diagnostics only). top can legitimately
  // run ahead of bot (stale heals), hence the clamp.
  std::int64_t size_estimate() const noexcept {
    const auto b = bot_.load(std::memory_order_relaxed);
    const auto t = top_.load(std::memory_order_relaxed);
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

  std::uint64_t reset_count() const noexcept {
    return resets_.load(std::memory_order_relaxed);
  }

  // Racy one-line snapshot for watchdog/post-mortem dumps.
  std::string debug_string() const {
    return "top=" + std::to_string(top_.load(std::memory_order_relaxed)) +
           " bot=" + std::to_string(bot_.load(std::memory_order_relaxed)) +
           " cap=" + std::to_string(capacity()) +
           " hwm=" + std::to_string(high_water_mark()) +
           " grows=" + std::to_string(grow_count()) +
           " resets=" + std::to_string(reset_count()) +
           " retired=" + std::to_string(retired_buffers());
  }

 private:
  // Claimed-slot sentinel: distinct from every real task pointer and from
  // the never-pushed nullptr.
  static T* claimed() noexcept {
    return reinterpret_cast<T*>(std::uintptr_t{1});
  }

  // Growth's slot copy claims the old slot as it reads it: a concurrent
  // thief exchange on old storage either beat this RMW (we copy the
  // sentinel it left) or follows it (it reads the sentinel we left) — the
  // slot's modification order guarantees exactly one side ever sees the
  // task. The release store keeps the payload-visibility chain intact for
  // a winner claiming through the new buffer.
  struct claim_copy {
    void operator()(std::atomic<T*>& dst,
                    std::atomic<T*>& src) const noexcept {
      dst.store(src.exchange(claimed(), std::memory_order_acq_rel),
                std::memory_order_release);
    }
  };

  // Owner, on finding the deque drained: wind the window back to index 0
  // so storage demand tracks the high-water mark instead of total tasks
  // ever pushed. Always safe — a straggling thief acting on pre-reset
  // indices only ever meets claimed slots (inert) or the next
  // generation's live window (a legitimate steal); the worst a stale
  // top store can do is hide the window until bot outgrows it or the
  // next drain re-zeros top.
  void drain_reset() noexcept {
    if (top_.load(std::memory_order_relaxed) == 0) return;
    top_.store(0, std::memory_order_relaxed);
    resets_.store(resets_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  alignas(cache_line_size) std::atomic<std::int64_t> bot_{0};
  alignas(cache_line_size) std::atomic<std::int64_t> top_{0};
  deque_storage<T> store_;
  std::atomic<std::uint64_t> resets_{0};
};

}  // namespace lcws
