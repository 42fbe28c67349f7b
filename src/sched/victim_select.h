// Locality-aware, success-weighted victim selection (DESIGN.md §7).
//
// The paper makes each steal cheap; this layer makes each steal *aim
// well*. Uniform-random victim choice crosses a cache or NUMA boundary on
// most attempts of a multi-socket machine, dragging cold task state with
// it — Suksompong, Leiserson & Schardl's localized-work-stealing analysis
// and Gu, Napier & Sun's cache-complexity results (PAPERS.md) both argue
// the miss traffic, not the steal count, is what hurts. So each worker
// carries a distance-ordered victim table (support/topology.h) and picks
// in two levels:
//
//   1. Tier: geometric bias toward near tiers — one RNG draw, one bit per
//      non-empty tier: stay with probability 1/2, else escalate, with the
//      farthest non-empty tier absorbing the remainder.
//   2. Victim within the tier: power-of-two-choices on the per-victim
//      steal-success EWMA that the scheduler keeps beside its targeted
//      flags (scheduler::note_victim_steal) — two uniform candidates,
//      keep the historically better one. O(1), no weight prefix sums,
//      and stale EWMAs only cost one pick.
//
// Every kExplorePeriod-th pick bypasses both levels and samples uniformly
// over *all* victims, so remote or cold victims are never starved.
//
// Cost contract: pick() is allocation- and fence-free — a few xoshiro
// draws plus relaxed EWMA loads through the caller's weight functor. The
// table is built at pool construction (never on the steal path), and
// pool_config::locality = false removes the layer entirely: the scheduler
// then draws victims uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/topology.h"

namespace lcws {

// Per-worker victim-selection stream seed.
inline std::uint64_t worker_rng_seed(std::size_t worker) noexcept {
  return hash64(0x5eed5eedULL + worker);
}

// ---- the selector ----------------------------------------------------------

// One per worker, owner-only (no atomics): built once at pool
// construction, consulted from the owner's steal loop.
class victim_selector {
 public:
  // Every kExplorePeriod-th pick is uniform over all victims.
  static constexpr std::uint32_t kExplorePeriod = 16;

  victim_selector() = default;

  void build(victim_table table) { table_ = std::move(table); }

  bool empty() const noexcept { return table_.empty(); }

  // Distance tier of a victim *worker* (not CPU) relative to this worker.
  locality_tier tier_of(std::size_t victim) const noexcept {
    return static_cast<locality_tier>(table_.tier_of[victim]);
  }

  // Victims nearest-first; park_idle's final sweep probes in this order so
  // the last pre-sleep look also favors warm caches.
  const std::vector<std::uint32_t>& order() const noexcept {
    return table_.order;
  }

  std::size_t tier_size(locality_tier t) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    return table_.tier_begin[i + 1] - table_.tier_begin[i];
  }

  // Picks a victim worker id. `weight(v)` returns victim v's steal-success
  // EWMA (any monotone goodness score); `explored` (optional) reports
  // whether this pick was a uniform exploration round.
  template <typename Rng, typename WeightFn>
  std::size_t pick(Rng& rng, WeightFn&& weight,
                   bool* explored = nullptr) noexcept {
    const auto& ord = table_.order;
    if (++seq_ >= kExplorePeriod) {
      // Uniform over all victims: the starvation-freedom escape hatch.
      seq_ = 0;
      if (explored != nullptr) *explored = true;
      return ord[rng.bounded(ord.size())];
    }
    if (explored != nullptr) *explored = false;
    // Level 1: geometric tier bias, one bit per non-empty tier.
    std::uint64_t bits = rng();
    std::size_t begin = 0;
    std::size_t end = 0;
    for (std::size_t t = 0; t < kNumLocalityTiers; ++t) {
      const std::size_t b = table_.tier_begin[t];
      const std::size_t e = table_.tier_begin[t + 1];
      if (b == e) continue;
      begin = b;
      end = e;
      if ((bits & 1) != 0) break;  // stay at this tier
      bits >>= 1;                  // escalate outward
    }
    const std::size_t size = end - begin;
    if (size == 1) return ord[begin];
    // Level 2: success-weighted power-of-two-choices within the tier.
    const std::size_t a = begin + rng.bounded(size);
    const std::size_t b = begin + rng.bounded(size);
    return weight(ord[a]) >= weight(ord[b]) ? ord[a] : ord[b];
  }

 private:
  victim_table table_;
  std::uint32_t seq_ = 0;
};

}  // namespace lcws
