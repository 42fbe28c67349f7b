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
// LCWS_LOCALITY_OFF=1 (or the constructor knob) removes the layer
// entirely: the scheduler then runs the legacy uniform choice bit-for-bit.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/topology.h"

namespace lcws {

// Constructor knob mirroring parking_mode: default defers to the
// LCWS_LOCALITY_OFF environment variable.
enum class locality_mode {
  env_default,
  disabled,
  enabled,
};

// Tunables, resolved once per scheduler from the environment.
struct locality_config {
  // Master switch (LCWS_LOCALITY_OFF truthy => false).
  bool enabled = true;
  // Worker pinning policy (LCWS_PIN=compact|scatter|off). Scatter is the
  // default: one worker per physical core first, so a partially-filled
  // pool keeps full per-core bandwidth; compact maximizes shared caches
  // between neighbors and is what bench/locality measures.
  pin_mode pin = pin_mode::scatter;

  static locality_config from_env() noexcept {
    locality_config c;
    if (const char* s = std::getenv("LCWS_LOCALITY_OFF")) {
      if (*s != '\0' && !(s[0] == '0' && s[1] == '\0')) c.enabled = false;
    }
    if (const char* s = std::getenv("LCWS_PIN")) {
      const std::string_view v(s);
      if (v == "compact") {
        c.pin = pin_mode::compact;
      } else if (v == "scatter") {
        c.pin = pin_mode::scatter;
      } else if (v == "off" || v == "0") {
        c.pin = pin_mode::off;
      }
    }
    return c;
  }
};

inline bool locality_enabled(locality_mode mode,
                             const locality_config& cfg) noexcept {
  switch (mode) {
    case locality_mode::disabled: return false;
    case locality_mode::enabled: return true;
    case locality_mode::env_default: break;
  }
  return cfg.enabled;
}

// ---- reproducible seeding (LCWS_SEED) --------------------------------------

// Optional base seed for the per-worker xoshiro256 streams, so victim-
// selection experiments are reproducible and sweepable. Unset => nullopt
// and the historical fixed seed is used.
inline std::optional<std::uint64_t> env_seed() noexcept {
  const char* s = std::getenv("LCWS_SEED");
  if (s == nullptr || *s == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

// Per-worker stream seed: golden-ratio stride over the user seed keeps the
// streams decorrelated; without a user seed this is bit-identical to the
// historical hash64(0x5eed5eed + worker).
inline std::uint64_t worker_rng_seed(const std::optional<std::uint64_t>& user,
                                     std::size_t worker) noexcept {
  if (user.has_value()) {
    return hash64(*user + 0x9e3779b97f4a7c15ULL * (worker + 1));
  }
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
