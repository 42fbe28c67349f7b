// Runtime selection over the compile-time scheduler policies.
//
// Benchmark harnesses sweep over sched_kind; algorithms are templates over
// the concrete scheduler type so their hot paths stay devirtualized. This
// adapter instantiates the visitor once per policy.
#pragma once

#include <cstddef>
#include <utility>

#include "sched/config.h"
#include "sched/policies.h"
#include "sched/scheduler.h"

namespace lcws {

// Constructs a scheduler of the requested kind with `num_workers` workers
// and the settings in `cfg` (sched/config.h), and invokes visitor(sched).
// The scheduler is torn down before returning. Usage:
//   with_scheduler(kind, p, [&](auto& sched) { ... });
//   with_scheduler(kind, p, pool_config{.parking = false}, visitor);
template <typename Visitor>
decltype(auto) with_scheduler(sched_kind kind, std::size_t num_workers,
                              const pool_config& cfg, Visitor&& visitor) {
  // Generated from the LCWS_SCHED_KINDS x-macro (policies.h): one case
  // per policy, so a new scheduler kind needs no edit here.
  switch (kind) {
#define LCWS_SCHED_KIND_CASE(kind_, policy)       \
  case sched_kind::kind_: {                       \
    scheduler<policy> sched(num_workers, cfg);    \
    return std::forward<Visitor>(visitor)(sched); \
  }
    LCWS_SCHED_KINDS(LCWS_SCHED_KIND_CASE)
#undef LCWS_SCHED_KIND_CASE
  }
  // Unreachable for in-range kinds; keeps -Wreturn-type quiet for
  // out-of-range casts.
  lace_scheduler sched(num_workers, cfg);
  return std::forward<Visitor>(visitor)(sched);
}

// The settings come from the LCWS_* environment, read afresh for each
// pool.
template <typename Visitor>
decltype(auto) with_scheduler(sched_kind kind, std::size_t num_workers,
                              Visitor&& visitor) {
  return with_scheduler(kind, num_workers, pool_config::from_env(),
                        std::forward<Visitor>(visitor));
}

}  // namespace lcws
