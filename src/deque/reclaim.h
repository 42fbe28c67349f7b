// Quiescence-based reclamation for growable deque storage.
//
// When an owner deque outgrows its slot array it publishes a larger copy
// and must eventually free the old one — but a thief may still be inside
// pop_top holding a pointer to the old array, so freeing needs a grace
// period. Classic epoch/hazard schemes put a fence or RMW on the *reader*
// side, which would betray this library's whole point (the paper's owner
// fast path is fence- and CAS-free, and the thief path pays exactly one
// CAS). This domain shifts all expensive synchronization to the retiring
// owner's slow path:
//
//   * Readers (thieves) call quiesce() at moments when they provably hold
//     no deque buffer pointer — the scheduler does it once per
//     find-task round. quiesce() is one acquire load of the global epoch
//     plus one release store to the reader's own cache-aligned slot: no
//     fence, no CAS, no RMW, and it never touches the deques themselves.
//   * A retiring owner first publishes the replacement buffer (release
//     store inside the deque), then takes a retire token by bumping the
//     global epoch (acq_rel RMW — growth is already a slow path). The old
//     buffer may be freed once every registered reader's slot has reached
//     the token.
//
// Why this is sound (both directions are plain release/acquire chains, so
// TSan can verify them — no fence modeling needed):
//
//   backward: any access a reader made through the *old* buffer is
//     program-ordered before its next quiesce(), whose release store the
//     collecting owner acquire-reads in passed(); hence every such access
//     happens-before the free.
//   forward: a reader whose slot holds a value >= the token acquire-read
//     the global epoch after the owner's acq_rel bump, which is
//     program-ordered after the release publication of the replacement
//     buffer; hence the reader's subsequent buffer loads can no longer
//     observe the retired pointer.
//
// Readers that stop quiescing (parked, stuck in a long task, or exited)
// merely *delay* reclamation — never compromise it. Storage retired while
// a reader is silent stays on the owner's retired list; geometric doubling
// bounds that list's total footprint by one current-buffer's worth, and
// the deque destructor frees whatever is left. A deque constructed without
// a domain never frees early at all (destructor-only reclamation): that is
// the safe default for standalone use where thief threads are unknown.
//
// Contract: every thread that may call pop_top on a deque with a domain
// must be registered with that domain *before the first growth can
// occur* (the scheduler registers all workers at construction, before any
// run()). Registration is not designed for mid-retirement arrival.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "deque/deque_common.h"
#include "stats/counters.h"
#include "stats/trace.h"
#include "support/align.h"
#include "support/fault_injection.h"

namespace lcws {

class reclaim_domain {
 public:
  // Generous ceiling on registered readers (worker pools are far smaller);
  // the slot array is 16 KiB per domain, one domain per scheduler.
  static constexpr std::size_t max_readers = 256;
  static constexpr std::size_t invalid_reader = ~std::size_t{0};

  reclaim_domain() = default;
  reclaim_domain(const reclaim_domain&) = delete;
  reclaim_domain& operator=(const reclaim_domain&) = delete;

  // Registers the calling context as a reader and returns its id. Returns
  // invalid_reader when the table is full; the domain then refuses to pass
  // any token (early reclamation stops — deques fall back to freeing at
  // destruction), because an untracked reader could never be waited on.
  std::size_t register_reader() noexcept {
    const std::size_t id = nreaders_.fetch_add(1, std::memory_order_acq_rel);
    if (id >= max_readers) {
      overflowed_.store(true, std::memory_order_release);
      return invalid_reader;
    }
    return id;
  }

  // Reader-side announcement: "I hold no deque buffer pointer right now,
  // and anything I read before this point is done." One acquire load + one
  // release store to this reader's own slot — no fence, no CAS. Safe to
  // call as often as desired; the scheduler calls it once per find-task
  // round and before parking.
  void quiesce(std::size_t id) noexcept {
    if (id >= max_readers) return;
    slots_[id].epoch.store(epoch_.load(std::memory_order_acquire),
                           std::memory_order_release);
  }

  // Owner-side: draws a retire token for storage whose replacement has
  // already been published. Called on the growth slow path only.
  std::uint64_t retire_token() noexcept {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  // Owner-side: true once every registered reader has quiesced at or past
  // `token` — the matching storage can no longer be reached.
  bool passed(std::uint64_t token) const noexcept {
    if (overflowed_.load(std::memory_order_acquire)) return false;
    const std::size_t n = nreaders_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n && i < max_readers; ++i) {
      if (slots_[i].epoch.load(std::memory_order_acquire) < token) {
        return false;
      }
    }
    return true;
  }

  std::size_t reader_count() const noexcept {
    const std::size_t n = nreaders_.load(std::memory_order_acquire);
    return n < max_readers ? n : max_readers;
  }

 private:
  struct alignas(cache_line_size) reader_slot {
    // Starts at 0 (< any token), so a fresh reader conservatively blocks
    // reclamation until its first quiesce().
    std::atomic<std::uint64_t> epoch{0};
  };

  // Epoch starts at 1 so token 1 (first retirement) is unreachable by the
  // initial slot value 0 until the reader has genuinely quiesced after it.
  alignas(cache_line_size) std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::size_t> nreaders_{0};
  std::atomic<bool> overflowed_{false};
  reader_slot slots_[max_readers];
};

// One slot array of a growable deque: a header plus a trailing array of
// atomic task-pointer slots, so the owner fast path pays exactly one
// dependent load (buffer pointer -> slot) over an inline array — still
// zero fences, zero CAS.
template <typename T>
struct deque_buffer {
  const std::size_t size;            // slot count (immutable)
  deque_buffer* retired_next{nullptr};  // owner-only intrusive retired list
  std::uint64_t retire_token{0};        // reclaim_domain token at retirement

  std::atomic<T*>* slots() noexcept {
    return reinterpret_cast<std::atomic<T*>*>(this + 1);
  }

  static deque_buffer* create(std::size_t n) {
    static_assert(alignof(std::atomic<T*>) <= alignof(std::max_align_t),
                  "trailing slot array relies on default new alignment");
    static_assert(sizeof(deque_buffer) % alignof(std::atomic<T*>) == 0,
                  "trailing slot array must start aligned");
    void* mem =
        ::operator new(sizeof(deque_buffer) + n * sizeof(std::atomic<T*>));
    auto* b = new (mem) deque_buffer(n);
    auto* s = b->slots();
    for (std::size_t i = 0; i < n; ++i) new (s + i) std::atomic<T*>(nullptr);
    return b;
  }

  static void destroy(deque_buffer* b) noexcept {
    // std::atomic<T*> is trivially destructible; tear down the header and
    // release the single allocation.
    b->~deque_buffer();
    ::operator delete(static_cast<void*>(b));
  }

 private:
  explicit deque_buffer(std::size_t n) noexcept : size(n) {}
};

// Growth's default slot copy: a plain relaxed move. Thieves validate what
// they read through their own index protocol (the age CAS), and the
// replacement buffer is release-published after the whole copy.
struct relaxed_slot_copy {
  template <typename T>
  void operator()(std::atomic<T*>& dst, std::atomic<T*>& src) const noexcept {
    dst.store(src.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
};

// The growable storage behind split_deque, abp_deque and wsmult_deque
// (DESIGN.md §8): the published buffer pointer plus the owner-side growth,
// retirement and collection bookkeeping. Thieves only call buffer(), after
// acquiring the index bound they are about to read through (each deque's
// pop_top keeps that order); everything else runs on the owner's thread.
// Without a domain, retired buffers are freed only by the destructor.
template <typename T>
class deque_storage {
 public:
  using buffer_t = deque_buffer<T>;

  deque_storage(std::size_t capacity, reclaim_domain* domain)
      : buf_(buffer_t::create(capacity == 0 ? 1 : capacity)),
        domain_(domain),
        capacity_(capacity == 0 ? 1 : capacity) {}

  deque_storage(const deque_storage&) = delete;
  deque_storage& operator=(const deque_storage&) = delete;

  ~deque_storage() {
    while (retired_ != nullptr) {
      buffer_t* next = retired_->retired_next;
      buffer_t::destroy(retired_);
      retired_ = next;
    }
    buffer_t::destroy(buf_.load(std::memory_order_relaxed));
  }

  buffer_t* buffer(
      std::memory_order order = std::memory_order_relaxed) const noexcept {
    return buf_.load(order);
  }

  // Growth slow path: double the buffer until it covers index `used`, copy
  // slots [0, used) with copy(dst, src), publish, retire the old storage.
  // [0, top) is dead history, but copying it is harmless and keeps the
  // indices unchanged. Owner thread only. Never inlined, so a push that
  // does not grow carries only the call.
  template <typename CopySlot = relaxed_slot_copy>
  [[gnu::noinline]] buffer_t* grow(std::int64_t used, CopySlot copy = {}) {
    collect();
    buffer_t* old = buf_.load(std::memory_order_relaxed);
    std::size_t nsize = old->size * 2;
    while (nsize <= static_cast<std::size_t>(used)) nsize *= 2;
    buffer_t* nb = buffer_t::create(nsize);
    auto* src = old->slots();
    auto* dst = nb->slots();
    for (std::int64_t i = 0; i < used; ++i) copy(dst[i], src[i]);
    if (fi::inject(fi::site::deque_grow)) grow_race_pause();
    // Publication point: release so a thief's acquire chain through the
    // index words sees fully copied slots.
    buf_.store(nb, std::memory_order_release);
    capacity_.store(nsize, std::memory_order_relaxed);
    retire(old);
    grows_.store(grows_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    stats::count_deque_grow();
    trace::emit(trace::event::deque_grow, nsize);
    return nb;
  }

  // Owner: records a push that left `depth` slots in use.
  void note_depth(std::int64_t depth) noexcept {
    if (depth > hwm_.load(std::memory_order_relaxed)) [[unlikely]] {
      hwm_.store(depth, std::memory_order_relaxed);
      stats::count_deque_hwm(static_cast<std::uint64_t>(depth));
    }
  }

  // Owner drain point: frees the retired buffers whose token every
  // registered reader has passed. With nothing retired this is one load.
  void collect() noexcept {
    if (retired_ != nullptr) free_passed();
  }

  // Racy diagnostics. capacity comes from a shadow word, never the buffer,
  // so a dumping watchdog thread cannot race reclamation.
  std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }
  std::uint64_t grow_count() const noexcept {
    return grows_.load(std::memory_order_relaxed);
  }
  std::int64_t high_water_mark() const noexcept {
    return hwm_.load(std::memory_order_relaxed);
  }
  std::uint64_t retired_buffers() const noexcept {
    return retired_count_.load(std::memory_order_relaxed);
  }

 private:
  // Retire after publication: the domain token drawn here is ordered after
  // the buf_ release store, which is what makes passed() imply
  // unreachability.
  void retire(buffer_t* old) noexcept {
    old->retire_token = domain_ != nullptr ? domain_->retire_token() : 0;
    old->retired_next = retired_;
    retired_ = old;
    retired_count_.store(retired_count_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }

  void free_passed() noexcept {
    if (domain_ == nullptr) return;
    buffer_t** link = &retired_;
    while (*link != nullptr) {
      buffer_t* r = *link;
      if (domain_->passed(r->retire_token)) {
        *link = r->retired_next;
        buffer_t::destroy(r);
        retired_count_.store(
            retired_count_.load(std::memory_order_relaxed) - 1,
            std::memory_order_relaxed);
      } else {
        link = &r->retired_next;
      }
    }
  }

  alignas(cache_line_size) std::atomic<buffer_t*> buf_;
  reclaim_domain* const domain_;
  buffer_t* retired_ = nullptr;  // owner-only intrusive list
  std::atomic<std::int64_t> hwm_{0};
  std::atomic<std::uint64_t> grows_{0};
  std::atomic<std::size_t> capacity_;  // shadow of buf_->size for dumps
  std::atomic<std::uint64_t> retired_count_{0};
};

}  // namespace lcws
