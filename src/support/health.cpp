#include "support/health.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <cstdlib>
#include <sstream>

namespace lcws::health {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) noexcept {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return (end == s) ? fallback : static_cast<std::uint64_t>(v);
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) noexcept {
  return static_cast<std::uint32_t>(env_u64(name, fallback));
}

bool env_truthy(const char* name) noexcept {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' && !(s[0] == '0' && s[1] == '\0');
}

}  // namespace

config config::from_env() noexcept {
  config c;
  c.enabled = !env_truthy("LCWS_DEGRADE_OFF");
  c.fail_streak = env_u32("LCWS_DEGRADE_FAIL_STREAK", c.fail_streak);
  if (c.fail_streak == 0) c.fail_streak = 1;
  c.fail_permille =
      10 * env_u32("LCWS_DEGRADE_FAIL_PCT", c.fail_permille / 10);
  c.min_window = env_u32("LCWS_DEGRADE_MIN_WINDOW", c.min_window);
  c.probe_period = env_u32("LCWS_DEGRADE_PROBE_PERIOD", c.probe_period);
  if (c.probe_period == 0) c.probe_period = 1;
  c.recover_streak = env_u32("LCWS_DEGRADE_RECOVER", c.recover_streak);
  if (c.recover_streak == 0) c.recover_streak = 1;
  c.rtt_deadline_ns =
      1000 * env_u64("LCWS_DEGRADE_RTT_US", c.rtt_deadline_ns / 1000);
  c.csw_per_sec = env_u64("LCWS_DEGRADE_CSW_PER_SEC", c.csw_per_sec);
  c.steal_budget = env_u32("LCWS_DEGRADE_STEAL_BUDGET", c.steal_budget);
  if (c.steal_budget == 0) c.steal_budget = 1;
  c.budget_window_ns = 1000 * env_u64("LCWS_DEGRADE_BUDGET_WINDOW_US",
                                      c.budget_window_ns / 1000);
  return c;
}

void monitor::sample_preemption(std::size_t self,
                                std::uint64_t now_ns) noexcept {
  auto& s = slots_[self].get();
  if (s.last_sample_ns != 0 &&
      now_ns - s.last_sample_ns < cfg_.sample_period_ns) {
    return;
  }
#if defined(__linux__) && defined(RUSAGE_THREAD)
  struct rusage ru {};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return;
  const std::uint64_t nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  if (s.last_sample_ns != 0 && now_ns > s.last_sample_ns) {
    const std::uint64_t elapsed = now_ns - s.last_sample_ns;
    const std::uint64_t delta = nivcsw - s.last_nivcsw;
    // Involuntary switches per second over the sampling interval.
    const std::uint64_t rate = delta * 1'000'000'000ull / elapsed;
    const bool futile =
        s.steal_ewma_permille.load(std::memory_order_relaxed) <=
        cfg_.futile_steal_permille;
    // Preempted hard, or preempted at all while every steal comes up
    // empty: either way this worker is fighting for a CPU it should cede.
    const bool pressured = rate >= cfg_.csw_per_sec ||
                           (futile && rate >= cfg_.csw_per_sec / 4 &&
                            cfg_.csw_per_sec >= 4);
    // Timeline-mark pressure *edges* only (the sampler runs steadily while
    // idle; steady-state would flood the trace ring).
    if (pressured != s.pressure.load(std::memory_order_relaxed)) {
      trace::emit(trace::event::pressure, pressured ? 1 : 0);
    }
    s.pressure.store(pressured, std::memory_order_relaxed);
  }
  s.last_nivcsw = nivcsw;
#endif
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    if (s.last_cpu >= 0 && cpu != s.last_cpu) {
      s.migrations.store(s.migrations.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    }
    s.last_cpu = cpu;
  }
#endif
  s.last_sample_ns = now_ns;
}

std::string monitor::debug_string(std::size_t worker) const {
  const auto& s = slots_[worker].get();
  std::ostringstream out;
  out << "degraded=" << s.degraded.load(std::memory_order_relaxed)
      << " fail_streak=" << s.fail_streak.load(std::memory_order_relaxed)
      << " fail_ewma_pm=" << s.ewma_permille.load(std::memory_order_relaxed)
      << " rtt_ewma_us="
      << s.rtt_ewma_ns.load(std::memory_order_relaxed) / 1000
      << " degrades=" << s.degrades.load(std::memory_order_relaxed)
      << " recovers=" << s.recovers.load(std::memory_order_relaxed)
      << " pressure=" << s.pressure.load(std::memory_order_relaxed)
      << " steal_ewma_pm="
      << s.steal_ewma_permille.load(std::memory_order_relaxed)
      << " victim_steal_ewma_pm="
      << s.victim_steal_ewma_permille.load(std::memory_order_relaxed)
      << " migrations=" << s.migrations.load(std::memory_order_relaxed);
  return out.str();
}

}  // namespace lcws::health
