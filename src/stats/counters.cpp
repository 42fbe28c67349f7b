#include "stats/counters.h"

#include <sstream>

namespace lcws::stats {

op_counters& op_counters::operator+=(const op_counters& other) noexcept {
  fences += other.fences;
  cas += other.cas;
  cas_failed += other.cas_failed;
  pushes += other.pushes;
  pops_private += other.pops_private;
  pops_public += other.pops_public;
  steal_attempts += other.steal_attempts;
  steals += other.steals;
  steal_aborts += other.steal_aborts;
  useful_steals += other.useful_steals;
  claims_lost += other.claims_lost;
  dup_extractions += other.dup_extractions;
  steals_near += other.steals_near;
  steals_remote += other.steals_remote;
  for (std::size_t t = 0; t < kStealTierCount; ++t) {
    steals_by_tier[t] += other.steals_by_tier[t];
  }
  locality_explores += other.locality_explores;
  private_work_seen += other.private_work_seen;
  exposures += other.exposures;
  exposure_requests += other.exposure_requests;
  unexposures += other.unexposures;
  signals_sent += other.signals_sent;
  signals_failed += other.signals_failed;
  deque_grows += other.deque_grows;
  // High-water mark: aggregation takes the max across workers, not a sum.
  if (other.deque_hwm.get() > deque_hwm.get()) deque_hwm = other.deque_hwm;
  tasks_executed += other.tasks_executed;
  idle_loops += other.idle_loops;
  parks += other.parks;
  wakes += other.wakes;
  idle_ns += other.idle_ns;
  runs_cancelled += other.runs_cancelled;
  return *this;
}

op_counters operator-(op_counters a, const op_counters& b) noexcept {
  a.fences -= b.fences;
  a.cas -= b.cas;
  a.cas_failed -= b.cas_failed;
  a.pushes -= b.pushes;
  a.pops_private -= b.pops_private;
  a.pops_public -= b.pops_public;
  a.steal_attempts -= b.steal_attempts;
  a.steals -= b.steals;
  a.steal_aborts -= b.steal_aborts;
  a.useful_steals -= b.useful_steals;
  a.claims_lost -= b.claims_lost;
  a.dup_extractions -= b.dup_extractions;
  a.steals_near -= b.steals_near;
  a.steals_remote -= b.steals_remote;
  for (std::size_t t = 0; t < kStealTierCount; ++t) {
    a.steals_by_tier[t] -= b.steals_by_tier[t];
  }
  a.locality_explores -= b.locality_explores;
  a.private_work_seen -= b.private_work_seen;
  a.exposures -= b.exposures;
  a.exposure_requests -= b.exposure_requests;
  a.unexposures -= b.unexposures;
  a.signals_sent -= b.signals_sent;
  a.signals_failed -= b.signals_failed;
  a.deque_grows -= b.deque_grows;
  // deque_hwm is a max, not a sum: differencing is meaningless, so the
  // delta keeps a's observed mark (bench deltas over an interval report
  // the mark reached during the run, since blocks start at zero).
  a.tasks_executed -= b.tasks_executed;
  a.idle_loops -= b.idle_loops;
  a.parks -= b.parks;
  a.wakes -= b.wakes;
  a.idle_ns -= b.idle_ns;
  a.runs_cancelled -= b.runs_cancelled;
  return a;
}

profile aggregate(const std::vector<cache_aligned<op_counters>>& blocks) {
  profile p;
  for (const auto& block : blocks) p.totals += block.get();
  return p;
}

std::string format_profile(const profile& p) {
  const auto& t = p.totals;
  std::ostringstream out;
  out << "fences=" << t.fences << " cas=" << t.cas << " (failed "
      << t.cas_failed << ")\n"
      << "pushes=" << t.pushes << " pops_private=" << t.pops_private
      << " pops_public=" << t.pops_public << "\n"
      << "steal_attempts=" << t.steal_attempts << " steals=" << t.steals
      << " aborts=" << t.steal_aborts
      << " private_work_seen=" << t.private_work_seen << "\n"
      << "useful_steals=" << t.useful_steals
      << " claims_lost=" << t.claims_lost
      << " dup_extractions=" << t.dup_extractions << "\n"
      << "steals_near=" << t.steals_near
      << " steals_remote=" << t.steals_remote << " by_tier=["
      << t.steals_by_tier[0] << " " << t.steals_by_tier[1] << " "
      << t.steals_by_tier[2] << " " << t.steals_by_tier[3] << " "
      << t.steals_by_tier[4] << "] explores=" << t.locality_explores
      << " near_fraction=" << p.near_steal_fraction() << "\n"
      << "exposures=" << t.exposures
      << " exposure_requests=" << t.exposure_requests
      << " unexposures=" << t.unexposures
      << " signals_sent=" << t.signals_sent
      << " signals_failed=" << t.signals_failed << "\n"
      << "deque_grows=" << t.deque_grows << " deque_hwm=" << t.deque_hwm
      << "\n"
      << "tasks_executed=" << t.tasks_executed
      << " idle_loops=" << t.idle_loops << "\n"
      << "parks=" << t.parks << " wakes=" << t.wakes
      << " idle_ns=" << t.idle_ns << "\n"
      << "runs_cancelled=" << t.runs_cancelled << "\n"
      << "exposed_not_stolen=" << p.exposed_not_stolen_fraction()
      << " steal_success_rate=" << p.steal_success_rate() << "\n"
      << "hw: status=" << p.hw.status << " cycles=" << p.hw.cycles
      << " instructions=" << p.hw.instructions << " ipc=" << p.hw.ipc()
      << " cache_refs=" << p.hw.cache_references
      << " cache_misses=" << p.hw.cache_misses
      << " miss_rate=" << p.hw.cache_miss_rate()
      << " task_clock_ms=" << p.hw.task_clock_ns / 1000000 << "\n";
  return out.str();
}

}  // namespace lcws::stats
