// The split deque of Rito & Paulino (J. Scheduling 2022) as implemented by
// the LCWS paper's Listing 2, with the Section 4 signal-safety fix.
//
// Layout (indices grow from the top of the deque downward):
//
//     deq[0]                      .. deq[age.top - 1]   already stolen
//     deq[age.top]                .. deq[public_bot-1]  PUBLIC  (stealable)
//     deq[public_bot]             .. deq[bot - 1]       PRIVATE (owner only)
//     deq[bot]                                          next push slot
//
// Owner-side operations on the private part (push_bottom / pop_bottom) are
// synchronization-free: no fences, no CAS, no RMW — this is the paper's
// entire point. Synchronization is confined to:
//   * pop_public_bottom: two seq_cst fences (Listing 2 lines 12 and 27),
//   * pop_top (thief):   one CAS,
// and only runs when work has actually been exposed.
//
// Deviations from the listing, each recorded in DESIGN.md:
//   * `bot` and `public_bot` are relaxed std::atomic<int64_t> rather than
//     plain unsigned ints: thieves read public_bot and the signal handler
//     writes it, which would otherwise be a data race (UB). Relaxed atomics
//     compile to plain loads/stores, preserving "synchronization-free".
//   * Indices are signed so the Section 4 pop_bottom variant
//     (`--bot < public_bot`) behaves on an empty deque (-1 < 0).
//   * Listing 2 line 39 reads `(public_bot < bot) ? nullptr : PRIVATE_WORK`,
//     which inverts the documented meaning of pop_top ("if only the public
//     part is empty it returns PRIVATE_WORK"); we implement the documented
//     behaviour.
//
// Storage contract (DESIGN.md §8): the slot array lives in a
// deque_storage (reclaim.h). A push that would run off the end doubles the
// buffer on a slow path — copy the live prefix, release-publish the
// replacement, retire the old storage through the reclaim_domain so an
// in-flight thief never touches freed memory — and the non-growth fast
// path is unchanged: push/pop still perform no fence, no CAS, no RMW (one
// extra dependent load for the buffer indirection). Indices reset only
// when the owner drains the deque completely; a steal removes the top
// element without lowering bot, so bot drifts upward by one per stolen
// task between full drains, and that drift just costs doubling.
//
// Thief-vs-growth safety: pop_top acquire-loads public_bot *before*
// loading the buffer pointer. The exposure that raised public_bot is a
// release store sequenced after any growth that made the buffer cover the
// exposed range, so the acquire gives a buffer at least that large (plus a
// defensive bounds check that degrades to `aborted`). Freeing is deferred
// through the domain's quiescence protocol; without a domain, retired
// buffers are only freed by the destructor.
//
// The exposure entry points (expose_one / expose_conservative /
// expose_half) implement update_public_bottom under the three policies of
// Sections 3, 4.1.1 and 4.1.2. They are async-signal-safe: they only load
// and store lock-free atomics belonging to the handler's own thread
// (growth happens inside push_bottom on the owner's thread, never in a
// handler, and handlers touch indices only — never the buffer pointer).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "deque/deque_common.h"
#include "deque/reclaim.h"
#include "stats/counters.h"
#include "support/align.h"

namespace lcws {

// Rounding trick from Section 4.1.2 (after Lua's lua_number2int): adding
// 2^52 + 2^51 forces the rounded integer into the low mantissa bits, which
// is substantially cheaper than std::round or integer division on the
// machines the paper targets. Rounds halves to even. Defined behaviour via
// memcpy rather than the listing's reinterpret_cast (strict aliasing).
inline std::int32_t double2int(double r) noexcept {
  r += 6755399441055744.0;
  std::int32_t out;
  std::memcpy(&out, &r, sizeof(out));
  return out;
}

template <typename T>
class split_deque {
  using buffer_t = deque_buffer<T>;

 public:
  explicit split_deque(std::size_t capacity = default_deque_capacity,
                       reclaim_domain* domain = nullptr)
      : store_(capacity, domain) {}

  split_deque(const split_deque&) = delete;
  split_deque& operator=(const split_deque&) = delete;

  // ---- owner-side, synchronization-free ---------------------------------

  // Listing 2 line 5. No fence, no CAS; growth is a slow path taken only
  // when the next slot would run off the current buffer.
  void push_bottom(T* task) {
    const auto b = bot_.load(std::memory_order_relaxed);
    buffer_t* buf = store_.buffer();
    if (static_cast<std::size_t>(b) >= buf->size) [[unlikely]] {
      buf = store_.grow(b);
    }
    buf->slots()[static_cast<std::size_t>(b)].store(
        task, std::memory_order_relaxed);
    // Release (free on x86): pairs with the exposure's release chain so a
    // thief that acquire-reads public_bot past this slot sees the payload.
    bot_.store(b + 1, std::memory_order_release);
    store_.note_depth(b + 1);
    stats::count_push();
  }

  // Listing 2 line 6: the original pop_bottom. Correct for the schedulers
  // that never expose concurrently with it (USLCWS exposes only inside
  // get_task; Conservative Exposure never exposes the last private task).
  T* pop_bottom_original() {
    const auto b = bot_.load(std::memory_order_relaxed);
    if (b == public_bot_.load(std::memory_order_relaxed)) return nullptr;
    bot_.store(b - 1, std::memory_order_relaxed);
    stats::count_pop_private();
    return store_.buffer()
        ->slots()[static_cast<std::size_t>(b - 1)]
        .load(std::memory_order_relaxed);
  }

  // Section 4's signal-safe variant: decrement *before* comparing, so an
  // exposure signal arriving mid-operation can never hand the task we are
  // taking to a thief. Still synchronization-free. On the empty paths the
  // caller must follow up with pop_public_bottom, which repairs bot.
  T* pop_bottom_signal_safe() {
    const auto b = bot_.load(std::memory_order_relaxed) - 1;
    bot_.store(b, std::memory_order_relaxed);
    if (b < public_bot_.load(std::memory_order_relaxed)) return nullptr;
    stats::count_pop_private();
    return store_.buffer()
        ->slots()[static_cast<std::size_t>(b)]
        .load(std::memory_order_relaxed);
  }

  // ---- owner-side, synchronized (public part) ---------------------------

  // Listing 2 lines 9-29, plus the Section 4 amendment: reset bot to 0 when
  // the public part is empty (repairing the signal-safe pop_bottom's
  // speculative decrement). The full-drain resets double as collection
  // points for retired buffers (owner slow path; free when quiesced).
  T* pop_public_bottom() {
    auto pb = public_bot_.load(std::memory_order_relaxed);
    if (pb == 0) {
      bot_.store(0, std::memory_order_relaxed);
      store_.collect();
      return nullptr;
    }
    --pb;
    public_bot_.store(pb, std::memory_order_relaxed);
    // Fence 1 (line 12): make the decrement visible to thieves before we
    // commit to the task, and read an up-to-date age.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    stats::count_fence();
    T* task = store_.buffer()
                  ->slots()[static_cast<std::size_t>(pb)]
                  .load(std::memory_order_relaxed);
    const auto old_age = unpack_age(age_.load(std::memory_order_relaxed));
    if (pb > static_cast<std::int64_t>(old_age.top)) {
      bot_.store(pb, std::memory_order_relaxed);
      stats::count_pop_public();
      return task;
    }
    // The public part holds at most this one task: empty the deque,
    // resetting all indices, and race thieves for the task via the age CAS.
    bot_.store(0, std::memory_order_relaxed);
    const age_t new_age{old_age.tag + 1, 0};
    public_bot_.store(0, std::memory_order_relaxed);
    bool won = false;
    if (pb == static_cast<std::int64_t>(old_age.top)) {
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
      stats::count_pop_public();
    }
    // Fence 2 (line 27): thieves must not observe the new age together with
    // a stale public_bot, which could double-execute a task.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    stats::count_fence();
    store_.collect();
    return task;
  }

  // ---- thief side --------------------------------------------------------

  // Listing 2 lines 30-40 with the line-39 polarity fixed. The buffer
  // pointer is loaded *after* the acquire of public_bot: the release store
  // that raised public_bot is sequenced after the growth that made the
  // buffer cover the exposed range, so coherence guarantees the buffer we
  // read here is at least that large.
  steal_result<T> pop_top() {
    stats::count_steal_attempt();
    const auto old_age = unpack_age(age_.load(std::memory_order_acquire));
    const auto pb = public_bot_.load(std::memory_order_acquire);
    if (pb > static_cast<std::int64_t>(old_age.top)) {
      buffer_t* buf = store_.buffer(std::memory_order_acquire);
      if (old_age.top >= buf->size) [[unlikely]] {
        // Mutually stale index/buffer snapshot (cannot happen for an
        // exposed slot per the ordering above; purely defensive). Treat as
        // a lost race rather than reading out of bounds.
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
    if (pb < bot_.load(std::memory_order_relaxed)) {
      stats::count_private_work_seen();
      return {steal_status::private_work, nullptr};
    }
    return {steal_status::empty, nullptr};
  }

  // ---- exposure policies (update_public_bottom) --------------------------
  // All three may be invoked from a SIGUSR1 handler running on the owner's
  // thread, concurrently (in the interleaving sense) with pop_bottom_*.
  // They touch only the index words — never the buffer pointer — so growth
  // cannot race them and they stay async-signal-safe.

  // Section 3 / base signal policy: expose the topmost private task, if
  // any. Requires pop_bottom_signal_safe when driven from a signal handler.
  // Returns the number of tasks exposed (0 or 1).
  std::int64_t expose_one() noexcept {
    const auto pb = public_bot_.load(std::memory_order_relaxed);
    if (pb < bot_.load(std::memory_order_relaxed)) {
      // Release: publishes the newly shared slot (and its job payload,
      // ordered by the push's release) to acquire-reading thieves.
      public_bot_.store(pb + 1, std::memory_order_release);
      stats::count_exposure();
      return 1;
    }
    return 0;
  }

  // Section 4.1.1: expose only when at least two private tasks remain, so
  // the last private task can never be yanked from under pop_bottom; the
  // original pop_bottom stays correct.
  std::int64_t expose_conservative() noexcept {
    const auto pb = public_bot_.load(std::memory_order_relaxed);
    if (pb + 1 < bot_.load(std::memory_order_relaxed)) {
      public_bot_.store(pb + 1, std::memory_order_release);
      stats::count_exposure();
      return 1;
    }
    return 0;
  }

  // Section 4.1.2: with r >= 3 private tasks, expose round(r/2) of them
  // (double2int rounding); otherwise at most one. Thieves still steal one
  // task at a time. Requires pop_bottom_signal_safe.
  std::int64_t expose_half() noexcept {
    const auto pb = public_bot_.load(std::memory_order_relaxed);
    const auto r = bot_.load(std::memory_order_relaxed) - pb;
    if (r <= 0) return 0;
    const std::int64_t n =
        r >= 3 ? static_cast<std::int64_t>(double2int(
                     static_cast<double>(r) / 2.0))
               : 1;
    public_bot_.store(pb + n, std::memory_order_release);
    stats::count_exposure(static_cast<std::uint64_t>(n));
    return n;
  }

  // Lace-style unexposure (van Dijk & van de Pol, and the contrast drawn
  // in the paper's Section 2): reclaim up to half of the public part back
  // into the private part. LCWS never does this; Lace does it when the
  // owner's private part runs dry. Each reclaimed task goes through
  // pop_public_bottom (inheriting its fence/CAS protocol against racing
  // thieves) and is re-pushed privately, preserving order.
  //
  // Precondition: the private part is empty (the only situation the Lace
  // policy reclaims in); the batch is buffered so it stays empty until the
  // re-push.
  std::int64_t unexpose_half() {
    const std::int64_t target = (public_size() + 1) / 2;
    T* buffer[64];
    std::int64_t got = 0;
    while (got < target && got < 64) {
      T* task = pop_public_bottom();
      if (task == nullptr) break;  // lost the remainder to thieves
      buffer[got++] = task;
    }
    // buffer[0] is the newest reclaimed task; push oldest-first so the
    // private part keeps the original age order.
    for (std::int64_t i = got - 1; i >= 0; --i) push_bottom(buffer[i]);
    if (got > 0) stats::count_unexposure(static_cast<std::uint64_t>(got));
    return got;
  }

  // Section 4.1.1 notification predicate: at least two tasks in the private
  // part (racy read by thieves; a stale answer only delays a signal).
  bool has_two_tasks() const noexcept {
    return public_bot_.load(std::memory_order_relaxed) + 1 <
           bot_.load(std::memory_order_relaxed);
  }

  // ---- diagnostics (racy estimates; tests use them single-threaded) ------

  std::int64_t private_size() const noexcept {
    const auto n = bot_.load(std::memory_order_relaxed) -
                   public_bot_.load(std::memory_order_relaxed);
    return n > 0 ? n : 0;
  }

  std::int64_t public_size() const noexcept {
    const auto n =
        public_bot_.load(std::memory_order_relaxed) -
        static_cast<std::int64_t>(
            unpack_age(age_.load(std::memory_order_relaxed)).top);
    return n > 0 ? n : 0;
  }

  std::int64_t size_estimate() const noexcept {
    return private_size() + public_size();
  }

  std::size_t capacity() const noexcept { return store_.capacity(); }
  std::uint64_t grow_count() const noexcept { return store_.grow_count(); }
  std::int64_t high_water_mark() const noexcept {
    return store_.high_water_mark();
  }
  std::uint64_t retired_buffers() const noexcept {
    return store_.retired_buffers();
  }

  // Racy one-line snapshot of the index state for watchdog/post-mortem
  // dumps (relaxed loads only; values may be mutually inconsistent).
  std::string debug_string() const {
    const auto a = unpack_age(age_.load(std::memory_order_relaxed));
    return "top=" + std::to_string(a.top) +
           " public_bot=" +
           std::to_string(public_bot_.load(std::memory_order_relaxed)) +
           " bot=" + std::to_string(bot_.load(std::memory_order_relaxed)) +
           " tag=" + std::to_string(a.tag) +
           " cap=" + std::to_string(capacity()) +
           " hwm=" + std::to_string(high_water_mark()) +
           " grows=" + std::to_string(grow_count()) +
           " retired=" + std::to_string(retired_buffers());
  }

 private:
  // bot and public_bot share a line deliberately: both are owner-written,
  // and the owner touches them together on every operation.
  alignas(cache_line_size) std::atomic<std::int64_t> bot_{0};
  std::atomic<std::int64_t> public_bot_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> age_{0};
  deque_storage<T> store_;
};

}  // namespace lcws
