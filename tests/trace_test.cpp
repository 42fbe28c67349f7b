// Observability layer (DESIGN.md §10): ring semantics, zero-cost-when-off
// counter bit-equality, an all-8-scheduler Chrome-trace smoke whose steal
// events must reconcile with the op-counter identities, trace_summary.py
// semantic validation, and the perf_counters unavailable fallback.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "sched/dispatch.h"
#include "sched/scheduler.h"
#include "stats/perf_counters.h"
#include "stats/trace.h"

namespace lcws {
namespace {

// ---- helpers ---------------------------------------------------------------

std::string tmp_path(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir ? dir : "/tmp") + "/lcws_" +
         stem + "_" + std::to_string(::getpid()) + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Minimal structural JSON validation: first non-space char '{', quotes and
// braces/brackets balance. (CI additionally parses emitted traces with
// python3 json / scripts/trace_summary.py; see PythonSummaryValidates.)
bool looks_like_json(const std::string& s) {
  if (s.empty() || s.find_first_not_of(" \t\r\n") == std::string::npos) {
    return false;
  }
  if (s[s.find_first_not_of(" \t\r\n")] != '{') return false;
  long brace = 0, bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

// A fork-join tree whose leaves do real work: deep enough to produce
// steals on every scheduler at P=4, small enough to stay under a 64k ring.
template <typename Sched>
std::uint64_t tree_sum(Sched& sched, std::size_t depth) {
  if (depth == 0) {
    std::uint64_t x = 1;
    for (int i = 0; i < 64; ++i) x = x * 1099511628211ull + 17;
    return x | 1;
  }
  std::uint64_t l = 0, r = 0;
  sched.pardo([&] { l = tree_sum(sched, depth - 1); },
              [&] { r = tree_sum(sched, depth - 1); });
  return l + r;
}

// ---- ring unit tests -------------------------------------------------------

TEST(TraceRing, CapacityRoundsToPowerOfTwo) {
  trace::ring r(100);
  EXPECT_EQ(r.capacity(), 128u);
  trace::ring r8(8);
  EXPECT_EQ(r8.capacity(), 8u);
}

TEST(TraceRing, WraparoundKeepsNewestInOrder) {
  trace::ring r(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    r.emit(trace::event::steal_attempt, i);
  }
  EXPECT_EQ(r.emitted(), 20u);
  EXPECT_EQ(r.dropped(), 12u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].kind, trace::event::steal_attempt);
    EXPECT_EQ(snap[i].arg, 12u + i);  // oldest retained is #12
    if (i > 0) {
      EXPECT_GE(snap[i].ts, snap[i - 1].ts);
    }
  }
}

TEST(TraceRing, EventOrderingWithinWorker) {
  trace::ring r(64);
  r.emit(trace::event::run_begin);
  r.emit(trace::event::task_begin, 1);
  r.emit(trace::event::steal_attempt, 3);
  r.emit(trace::event::steal_success, 3);
  r.emit(trace::event::task_end);
  r.emit(trace::event::run_end);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 6u);
  EXPECT_EQ(snap.front().kind, trace::event::run_begin);
  EXPECT_EQ(snap.back().kind, trace::event::run_end);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].ts, snap[i - 1].ts) << "ring order must track time";
  }
  EXPECT_EQ(snap[2].arg, 3u);
}

TEST(TraceRing, ArgsTruncateTo56Bits) {
  trace::ring r(8);
  r.emit(trace::event::deque_grow, ~std::uint64_t{0});
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, trace::event::deque_grow);
  EXPECT_EQ(snap[0].arg, trace::kArgMask);
}

TEST(TraceRing, EmitIsNoopWithoutLocalRing) {
  trace::set_local_ring(nullptr);
  trace::emit(trace::event::steal_attempt, 1);  // must not crash
  trace::ring r(8);
  trace::set_local_ring(&r);
  trace::emit(trace::event::steal_attempt, 1);
  trace::set_local_ring(nullptr);
  EXPECT_EQ(r.emitted(), 1u);
}

// ---- zero cost when off ----------------------------------------------------

// With tracing off vs on, a deterministic P=1 run must produce
// bit-identical op counters: the tracer writes only to its own rings and
// never touches the paper's fence/CAS/steal accounting.
TEST(TraceZeroCost, CountersBitIdenticalTraceOnVsOff) {
  const auto run_once = [](bool traced) {
    pool_config cfg;
    if (traced) cfg.trace = tmp_path("zerocost");
    ws_scheduler sched(1, cfg);
    sched.run([&] { tree_sum(sched, 10); });
    return sched.profile().totals;
  };
  const auto off = run_once(false);
  const auto on = run_once(true);
  EXPECT_EQ(off.fences.get(), on.fences.get());
  EXPECT_EQ(off.cas.get(), on.cas.get());
  EXPECT_EQ(off.pushes.get(), on.pushes.get());
  EXPECT_EQ(off.pops_private.get(), on.pops_private.get());
  EXPECT_EQ(off.pops_public.get(), on.pops_public.get());
  EXPECT_EQ(off.steals.get(), on.steals.get());
  EXPECT_EQ(off.steal_attempts.get(), on.steal_attempts.get());
  EXPECT_EQ(off.tasks_executed.get(), on.tasks_executed.get());
  EXPECT_GT(off.pushes.get(), 0u);  // the workload actually forked
  std::remove(tmp_path("zerocost").c_str());
}

// ---- all-8-scheduler smoke -------------------------------------------------

TEST(TraceSmoke, All8SchedulersEmitParseableChromeJson) {
  for (const sched_kind kind : all_sched_kinds) {
    const std::string path =
        tmp_path(std::string("smoke_") + to_string(kind));
    stats::profile prof;
    std::uint64_t emitted_max = 0;
    std::size_t ring_capacity = 0;
    {
      const pool_config cfg{.trace = path, .trace_ring = 65536};
      with_scheduler(kind, 4, cfg, [&](auto& sched) {
        sched.run([&] { tree_sum(sched, 9); });
        prof = sched.profile();
        ASSERT_TRUE(sched.tracer().enabled());
        ring_capacity = sched.tracer().worker_ring(0)->capacity();
        for (std::size_t w = 0; w < sched.num_workers(); ++w) {
          emitted_max = std::max(emitted_max,
                                 sched.tracer().worker_ring(w)->emitted());
        }
      });
    }
    // Reconciliation below requires lossless rings.
    ASSERT_LE(emitted_max, ring_capacity) << to_string(kind);

    const std::string body = slurp(path);
    ASSERT_FALSE(body.empty()) << path;
    EXPECT_TRUE(looks_like_json(body)) << to_string(kind);
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.find("thread_name"), std::string::npos);

    // Steal-event reconciliation with the §3.3 counter identities: the
    // scheduler emits steal_success exactly when try_steal returns a task.
    // For wsmult, pop_top counts a "steal" on both claim-won and
    // claim-lost extractions (claims_lost of them return no task), so
    // scheduler-visible successes are steals - claims_lost; for every
    // other scheduler claims_lost == 0 and this is exactly `steals`.
    const auto successes = count_occurrences(body, "\"steal_success\"");
    const auto expected =
        prof.totals.steals.get() - prof.totals.claims_lost.get();
    EXPECT_EQ(successes, expected) << to_string(kind);
    EXPECT_GE(prof.totals.useful_steals.get() +
                  (kind == sched_kind::wsmult ? 0u : expected),
              expected)
        << "useful_steals identity sanity";

    // Every begin/end pair present for tasks; the run slice closed.
    EXPECT_GT(count_occurrences(body, "\"task\""), 0u) << to_string(kind);
    EXPECT_NE(body.find("\"run\""), std::string::npos);
    std::remove(path.c_str());
  }
}

// Steal *attempt* reconciliation holds exactly for the deque families
// (every try_steal counts one attempt). The mailbox family's early return
// for announced-parked victims traces an attempt without counting one, so
// it is excluded by design.
//
// Idle workers keep attempting steals between run() returning and pool
// shutdown, so a profile() snapshot taken inside the visitor can lag the
// final trace file. Both the exit dump and the final trace rewrite happen
// in the destructor *after* every worker has joined, so those two views
// are the pool's quiescent state and must agree exactly.
TEST(TraceSmoke, StealAttemptsReconcileForDequeFamilies) {
  for (const sched_kind kind :
       {sched_kind::ws, sched_kind::uslcws, sched_kind::wsmult}) {
    const std::string path =
        tmp_path(std::string("attempts_") + to_string(kind));
    const std::string dump_path =
        tmp_path(std::string("attempts_dump_") + to_string(kind));
    std::remove(dump_path.c_str());  // the dump appends
    bool dropped_any = false;
    {
      const pool_config cfg{
          .dump_on_exit = dump_path, .trace = path, .trace_ring = 65536};
      with_scheduler(kind, 4, cfg, [&](auto& sched) {
        sched.run([&] { tree_sum(sched, 9); });
        for (std::size_t w = 0; w < sched.num_workers(); ++w) {
          dropped_any |= sched.tracer().worker_ring(w)->dropped() != 0;
        }
      });
    }
    ASSERT_FALSE(dropped_any) << to_string(kind) << ": raise ring size";

    // Sum per-worker attempts out of the exit dump's "steals=S/A" fields.
    const std::string dump = slurp(dump_path);
    ASSERT_FALSE(dump.empty()) << dump_path;
    std::uint64_t dump_attempts = 0;
    std::size_t dump_workers = 0;
    const std::regex steals_re(R"( steals=(\d+)/(\d+))");
    for (auto it = std::sregex_iterator(dump.begin(), dump.end(), steals_re);
         it != std::sregex_iterator(); ++it) {
      dump_attempts += std::stoull((*it)[2].str());
      ++dump_workers;
    }
    ASSERT_EQ(dump_workers, 4u) << dump;

    const std::string body = slurp(path);
    EXPECT_EQ(count_occurrences(body, "\"steal_attempt\""), dump_attempts)
        << to_string(kind);
    std::remove(path.c_str());
    std::remove(dump_path.c_str());
  }
}

TEST(TraceSmoke, TraceTailAppearsInWorkerDump) {
  const std::string path = tmp_path("dump");
  ws_scheduler sched(2, pool_config{.trace = path});
  sched.run([&] { tree_sum(sched, 6); });
  const std::string dump = sched.dump_worker_state();
  EXPECT_NE(dump.find("trace tail"), std::string::npos);
  EXPECT_NE(dump.find("task"), std::string::npos);
  std::remove(path.c_str());
}

// ---- trace_summary.py ------------------------------------------------------

// Semantic validation via the Python summarizer: utilization, steal
// latency pairing and park episodes must be derivable, and --check's
// ordering/balance gates must pass on a real trace.
TEST(TraceSummary, PythonSummaryValidates) {
  if (std::system("python3 -c 'import json' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
#ifndef LCWS_SOURCE_DIR
  GTEST_SKIP() << "LCWS_SOURCE_DIR not defined";
#else
  const std::string path = tmp_path("summary");
  {
    uslcws_scheduler sched(4, pool_config{.trace = path, .trace_ring = 65536});
    sched.run([&] { tree_sum(sched, 9); });
  }
  const std::string script =
      std::string(LCWS_SOURCE_DIR) + "/scripts/trace_summary.py";
  const std::string cmd =
      "python3 " + script + " " + path + " --check >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(path.c_str());
#endif
}

// ---- perf_counters ---------------------------------------------------------

TEST(PerfCounters, ForcedEACCESReportsCleanUnavailableMarker) {
  stats::perf_group g;
  EXPECT_FALSE(g.open(EACCES));
  EXPECT_FALSE(g.is_open());
  EXPECT_EQ(g.error(), EACCES);
  EXPECT_EQ(g.status(), "unavailable:EACCES");
  const auto v = g.read();
  EXPECT_FALSE(v.any());
}

TEST(PerfCounters, ForcedENOENTReportsCleanUnavailableMarker) {
  stats::perf_group g;
  EXPECT_FALSE(g.open(ENOENT));
  EXPECT_EQ(g.status(), "unavailable:ENOENT");
}

TEST(PerfCounters, LcwsPerfOffDisablesSampling) {
  ws_scheduler sched(2, pool_config{.perf = false});
  sched.run([&] { tree_sum(sched, 6); });
  const auto hw = sched.profile().hw;
  EXPECT_EQ(hw.status, "unavailable:off");
  EXPECT_FALSE(hw.available);
  EXPECT_FALSE(sched.hw_counters_enabled());
}

TEST(PerfCounters, RealOpenEitherWorksOrFailsCleanly) {
  // Container-agnostic: where the kernel permits, values are real and
  // nonzero; where it doesn't, the status says so — never silent zeros.
  ws_scheduler sched(2);
  sched.run([&] { tree_sum(sched, 8); });
  const auto hw = sched.profile().hw;
  ASSERT_FALSE(hw.status.empty());
  if (hw.available && hw.status == "available") {
    EXPECT_GT(hw.cycles, 0u);
    EXPECT_GT(hw.instructions, 0u);
  } else if (!hw.available) {
    EXPECT_EQ(hw.status.rfind("unavailable:", 0), 0u) << hw.status;
    EXPECT_EQ(hw.cycles, 0u);
  }
}

}  // namespace
}  // namespace lcws
