// Repository benchmark: end-to-end makespans of the eight schedulers on
// four closed-loop workloads, and (with --trace 1) the per-layer probes
// and a traced re-run of the workload. benchmark/README.md documents the
// protocol, the workloads and the metrics; run.sh builds and drives this
// binary and check_output.py validates what it writes.
//
//   lcws_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              --out RESULT.json [--trace-dir DIR] [--rev SHA]
//   lcws_bench --self-test
//
// Every layer is timed from outside, through its public API: the
// with_scheduler/scheduler constructor, run, pardo and profile(); the
// deques' push_bottom/pop_bottom/pop_top; the PBBS Bench::run/Bench::check
// and the PBBS generators.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "deque/abp_deque.h"
#include "deque/private_deque.h"
#include "deque/split_deque.h"
#include "deque/wsmult_deque.h"
#include "pbbs/benchmarks/bfs.h"
#include "pbbs/benchmarks/comparison_sort.h"
#include "pbbs/benchmarks/integer_sort.h"
#include "pbbs/benchmarks/maximal_matching.h"
#include "pbbs/graph_gen.h"
#include "pbbs/sequence_gen.h"
#include "sched/dispatch.h"
#include "stats/counters.h"

extern char** environ;

namespace {

using namespace lcws;
using clk = std::chrono::steady_clock;

// ---- protocol (frozen: changing any value here changes the benchmark) ----

constexpr std::size_t kMaxWorkers = 4;  // P = min(4, nproc)
constexpr int kWarmupRounds = 1;        // per pool, untimed
constexpr int kMinCycles = 2;           // a cycle = one block per scheduler
constexpr auto kIdleGap = std::chrono::milliseconds(2);

// Workload sizes: fib orders, and the n each PBBS Bench::make takes.
constexpr int kForkFineN = 30;
constexpr int kBurstN = 20;
constexpr std::size_t kSortN = 250000;      // comparisonSort/randomSeq_double
constexpr std::size_t kIntSortN = 400000;   // integerSort/randomSeq_int
constexpr std::size_t kMatchingN = 10000;   // maximalMatching/rMatGraph
constexpr std::size_t kBfsN = 160000;       // breadthFirstSearch/3Dgrid

struct workload_spec {
  const char* name;
  int rounds_per_block;
};

constexpr workload_spec kWorkloads[] = {
    {"fork_fine", 10},
    {"pbbs_coarse", 10},
    {"pbbs_irregular", 10},
    {"burst_runs", 100},
};

// The tail quantile on every workload. p99 on burst_runs (11 samples beyond
// it) moved by up to 50% between runs on a shared host; p90 keeps at least
// ten samples beyond it everywhere and stays within the bound.
constexpr double kTailQ = 0.90;

// Host-speed reference: P threads, thread i pinned to the i-th CPU this
// process may use, each sort a private copy of the same 256 Ki random
// doubles (2 MiB). It runs just before every pool. On a shared host the
// machine's speed drifts by up to ~20% between minutes, so every
// end-to-end time is reported at the nominal speed: each block's times are
// scaled by kHostRefNominalS / (the reference time taken just before it).
constexpr std::size_t kHostRefN = std::size_t{1} << 18;
constexpr double kHostRefNominalS = 0.025;

// The paper's five schedulers get a tail metric as well as a median.
constexpr sched_kind kTailScheds[] = {sched_kind::ws, sched_kind::uslcws,
                                      sched_kind::signal,
                                      sched_kind::conservative,
                                      sched_kind::expose_half};
constexpr std::size_t kNumScheds = std::size(all_sched_kinds);

// Per-layer probe sizes (--trace 1 only).
constexpr int kDequeOps = 4096;
constexpr int kDequeReps = 200;
constexpr int kForkJoinN = 27;
constexpr int kProbeRounds = 5;
constexpr int kRttRounds = 40;
constexpr int kLcwsTraceRounds = 5;

// ---- small helpers ---------------------------------------------------------

double seconds_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile: of n samples, n - ceil(q * n) lie above it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename T>
void keep(T* p) {
  asm volatile("" : : "r"(p) : "memory");
}

// The CPUs this process may run on (its affinity mask at first call).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

std::size_t online_cpus() {
  const std::size_t n = allowed_cpus().size();
  return n != 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}

sched_family family_of(sched_kind kind) {
  switch (kind) {
#define LCWS_BENCH_FAMILY(kind_, policy) \
  case sched_kind::kind_:                \
    return policy::family;
    LCWS_SCHED_KINDS(LCWS_BENCH_FAMILY)
#undef LCWS_BENCH_FAMILY
  }
  return sched_family::ws;
}

// One host-speed reference measurement (see kHostRefN). It shares no code
// with the library under test, so a library change cannot move it. The
// per-thread buffers live for the whole run: freeing them would make the
// next pool's construction pay the page faults. Pinning is best effort.
double host_reference_seconds(std::size_t threads) {
  static const std::vector<double> base = [] {
    std::vector<double> v(kHostRefN);
    std::uint64_t x = 1;
    for (double& d : v) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      d = static_cast<double>(x >> 11);
    }
    return v;
  }();
  static std::vector<std::vector<double>> buffers;
  buffers.resize(threads, std::vector<double>(kHostRefN));
  const auto t0 = clk::now();
  std::vector<std::thread> team;
  for (std::size_t i = 0; i < threads; ++i) {
    team.emplace_back([i] {
      const std::vector<int>& cpus = allowed_cpus();
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        (void)sched_setaffinity(0, sizeof one, &one);
      }
      std::vector<double>& v = buffers[i];
      std::copy(base.begin(), base.end(), v.begin());
      std::sort(v.begin(), v.end());
      keep(v.data());
    });
  }
  for (std::thread& th : team) th.join();
  return seconds_between(t0, clk::now());
}

// Failures are counted against attempts; any failure fails the run.
struct tally {
  long attempted = 0;
  long failed = 0;
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---- spans -----------------------------------------------------------------

// The benchmark's own spans, recorded on the calling thread around its
// calls into each layer, kept in memory and written once as Chrome trace
// JSON. Recording is off except where a traced run switches it on.
class span_log {
 public:
  bool on = false;

  // The span is named `what` followed by `detail`.
  void add(std::string_view what, std::string_view detail, const char* cat,
           clk::time_point b, clk::time_point e, const char* sched) {
    if (!on) return;
    std::string name(what);
    name += detail;
    spans_.push_back({std::move(name), cat, seconds_between(origin_, b) * 1e6,
                      seconds_between(b, e) * 1e6, sched});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"sched\":\"%s\"}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.cat, s.ts_us,
                   s.dur_us, s.sched);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct span {
    std::string name;
    const char* cat;
    double ts_us;
    double dur_us;
    const char* sched;
  };
  clk::time_point origin_ = clk::now();
  std::vector<span> spans_;
};

// ---- kernels ---------------------------------------------------------------

template <typename Sched>
std::uint64_t pfib(Sched& s, int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  s.pardo([&] { a = pfib(s, n - 1); }, [&] { b = pfib(s, n - 2); });
  return a + b;
}

[[gnu::noinline]] std::uint64_t seq_fib(int n) {
  return n < 2 ? static_cast<std::uint64_t>(n)
               : seq_fib(n - 1) + seq_fib(n - 2);
}

std::uint64_t fib_value(int n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (int i = 0; i < n; ++i) a = std::exchange(b, a + b);
  return a;
}

// A pure pardo tree with no leaf work: the owner path in isolation.
class fib_kernel {
 public:
  static constexpr const char* name = "fib";
  double last_s = 0;

  explicit fib_kernel(int n) : n_(n), expect_(fib_value(n)) {}

  template <typename Sched>
  void run(Sched& s, span_log& log, const char* sched) {
    const auto t0 = clk::now();
    std::uint64_t r = 0;
    s.run([&] { r = pfib(s, n_); });
    const auto t1 = clk::now();
    got_ = r;
    last_s = seconds_between(t0, t1);
    log.add("run fib", "", "sched", t0, t1, sched);
  }

  bool validate(span_log&, const char*) {
    const bool ok = got_ == expect_;
    got_ = 0;
    return ok;
  }

  bool same_input(const fib_kernel& o) const { return n_ == o.n_; }

 private:
  int n_;
  std::uint64_t expect_;
  std::uint64_t got_ = 0;
};

// An empty top-level run(): entry, wake-up and exit only.
class empty_run_kernel {
 public:
  static constexpr const char* name = "empty";
  double last_s = 0;

  template <typename Sched>
  void run(Sched& s, span_log&, const char*) {
    const auto t0 = clk::now();
    s.run([] {});
    last_s = seconds_between(t0, clk::now());
  }
  bool validate(span_log&, const char*) { return true; }
  bool same_input(const empty_run_kernel&) const { return true; }
};

bool same_graph(const pbbs::graph& a, const pbbs::graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_arcs() != b.num_arcs()) {
    return false;
  }
  for (pbbs::vertex_id v = 0; v < a.num_vertices(); ++v) {
    const auto x = a.neighbors(v);
    const auto y = b.neighbors(v);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

bool same(const pbbs::comparison_sort_bench::input& a,
          const pbbs::comparison_sort_bench::input& b) {
  return a.data == b.data;
}
bool same(const pbbs::integer_sort_bench::input& a,
          const pbbs::integer_sort_bench::input& b) {
  return a.key_bits == b.key_bits && a.data == b.data;
}
bool same(const pbbs::maximal_matching_bench::input& a,
          const pbbs::maximal_matching_bench::input& b) {
  return a.edges == b.edges && same_graph(*a.g, *b.g);
}
bool same(const pbbs::bfs_bench::input& a, const pbbs::bfs_bench::input& b) {
  return a.source == b.source && a.back_forward == b.back_forward &&
         same_graph(*a.g, *b.g);
}

bool same(const pbbs::comparison_sort_bench::output& a,
          const pbbs::comparison_sort_bench::output& b) {
  return a.sorted == b.sorted;
}
bool same(const pbbs::integer_sort_bench::output& a,
          const pbbs::integer_sort_bench::output& b) {
  return a.sorted == b.sorted;
}
bool same(const pbbs::maximal_matching_bench::output& a,
          const pbbs::maximal_matching_bench::output& b) {
  return a.matched_edges == b.matched_edges;
}
bool same(const pbbs::bfs_bench::output& a, const pbbs::bfs_bench::output& b) {
  return a.distance == b.distance;
}

// One PBBS kernel on a fixed input. The first output is validated with
// Bench::check and kept; the kernels are deterministic, so every later
// output is validated by exact equality with it (Bench::check re-sorts or
// re-runs a sequential reference and would cost more than the kernel).
template <typename Bench>
class pbbs_kernel {
 public:
  static constexpr const char* name = Bench::name;
  double last_s = 0;

  explicit pbbs_kernel(typename Bench::input in) : in_(std::move(in)) {}

  template <typename Sched>
  void run(Sched& s, span_log& log, const char* sched) {
    const auto t0 = clk::now();
    out_ = Bench::run(s, in_);
    const auto t1 = clk::now();
    last_s = seconds_between(t0, t1);
    log.add("Bench::run ", name, "pbbs", t0, t1, sched);
  }

  bool validate(span_log& log, const char* sched) {
    if (!out_) return false;
    bool ok = false;
    if (!ref_) {
      const auto t0 = clk::now();
      ok = Bench::check(in_, *out_);
      log.add("Bench::check ", name, "pbbs", t0, clk::now(), sched);
      if (ok) ref_ = std::move(out_);
    } else {
      ok = same(*out_, *ref_);
    }
    out_.reset();
    return ok;
  }

  bool same_input(const pbbs_kernel& o) const { return same(in_, o.in_); }
  const typename Bench::input& input() const { return in_; }

 private:
  typename Bench::input in_;
  std::optional<typename Bench::output> out_;
  std::optional<typename Bench::output> ref_;
};

// A round runs every kernel in order; `gap` is the caller's idle time
// before each round, outside the timed window.
template <typename... K>
struct kernel_set {
  std::tuple<K...> kernels;
  std::chrono::milliseconds gap{0};

  template <typename Sched>
  void run(Sched& s, span_log& log, const char* sched) {
    std::apply([&](auto&... k) { (k.run(s, log, sched), ...); }, kernels);
  }
  // Validates every kernel (no short-circuit: each resets its output).
  bool validate(span_log& log, const char* sched) {
    return std::apply(
        [&](auto&... k) { return (k.validate(log, sched) & ...); }, kernels);
  }
  std::vector<double> kernel_s() const {
    return std::apply(
        [](const auto&... k) { return std::vector<double>{k.last_s...}; },
        kernels);
  }
  static std::vector<const char*> kernel_names() { return {K::name...}; }
  bool same_inputs(const kernel_set& o) const {
    return std::apply(
        [&](const auto&... a) {
          return std::apply(
              [&](const auto&... b) { return (a.same_input(b) && ...); },
              o.kernels);
        },
        kernels);
  }
};

using fib_set = kernel_set<fib_kernel>;
using empty_set = kernel_set<empty_run_kernel>;
using coarse_set = kernel_set<pbbs_kernel<pbbs::comparison_sort_bench>,
                              pbbs_kernel<pbbs::integer_sort_bench>>;
using irregular_set = kernel_set<pbbs_kernel<pbbs::maximal_matching_bench>,
                                 pbbs_kernel<pbbs::bfs_bench>>;

// ---- input generation ------------------------------------------------------

// --seed N offsets each generator's own default seed by N - 1, so seed 1
// reproduces Bench::make's inputs bit-for-bit (--self-test checks this).
std::uint64_t gen_seed(std::uint64_t make_default, std::uint64_t seed) {
  return make_default + (seed - 1);
}

fib_set make_fork_fine(std::uint64_t) { return {{fib_kernel(kForkFineN)}}; }

fib_set make_burst(std::uint64_t) {
  return {{fib_kernel(kBurstN)}, kIdleGap};
}

coarse_set make_coarse(std::uint64_t seed) {
  return {{pbbs_kernel<pbbs::comparison_sort_bench>(
               {pbbs::random_double_seq(kSortN, gen_seed(4, seed))}),
           pbbs_kernel<pbbs::integer_sort_bench>(
               {pbbs::random_seq(kIntSortN, std::uint64_t{1} << 27,
                                 gen_seed(1, seed)),
                27})}};
}

irregular_set make_irregular(std::uint64_t seed) {
  auto mg = std::make_shared<pbbs::graph>(
      pbbs::rmat_graph(kMatchingN / 8, kMatchingN, gen_seed(20, seed)));
  auto edges = mg->undirected_edges();
  auto bg = std::make_shared<pbbs::graph>(pbbs::grid3d_graph(kBfsN / 4));
  // The 3D grid is a torus, so every source does the same work.
  const auto source = static_cast<pbbs::vertex_id>(
      ((seed - 1) * 0x9e3779b97f4a7c15ULL) % bg->num_vertices());
  return {{pbbs_kernel<pbbs::maximal_matching_bench>(
               {std::move(mg), std::move(edges)}),
           pbbs_kernel<pbbs::bfs_bench>({std::move(bg), source, false})}};
}

// ---- blocks and cycles -----------------------------------------------------

// Which rounds of a block record spans: none (untraced end-to-end runs),
// all (probes), or every second timed round (the traced re-run, so traced
// and untraced rounds share each pool).
enum class span_mode { off, all, alternate };

struct block_result {
  std::vector<double> rounds_s;
  std::vector<std::vector<double>> kernel_s;  // per timed round
  std::vector<char> traced;
  stats::op_counters counters;
  double ctor_s = 0;
  double dtor_s = 0;
};

// One fresh pool: kWarmupRounds untimed rounds, then `rounds` timed ones.
// Counters cover the timed rounds only. Every round is validated outside
// its timed window; a failed or throwing round is counted and not kept.
template <typename W>
block_result run_block(W& wl, sched_kind kind, std::size_t workers,
                       int rounds, span_mode mode, span_log& log, tally& t) {
  block_result b;
  const char* sname = to_string(kind);
  const bool tracing = mode != span_mode::off;
  log.on = tracing;
  const auto t0 = clk::now();
  clk::time_point t1;
  clk::time_point t2;
  with_scheduler(kind, workers, [&](auto& s) {
    t1 = clk::now();
    for (int r = -kWarmupRounds; r < rounds; ++r) {
      if (r == 0) s.reset_counters();
      const bool traced = mode == span_mode::all ||
                          (mode == span_mode::alternate && (r & 1) != 0);
      log.on = traced;
      if (wl.gap.count() > 0) std::this_thread::sleep_for(wl.gap);
      const auto rb = clk::now();
      bool ok = true;
      try {
        wl.run(s, log, sname);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: round threw: %s\n", sname, e.what());
        ok = false;
      }
      const auto re = clk::now();
      log.add("round", "", "bench", rb, re, sname);
      log.on = tracing;
      ok = wl.validate(log, sname) && ok;
      t.count(ok);
      if (r < 0 || !ok) continue;
      b.rounds_s.push_back(seconds_between(rb, re));
      b.kernel_s.push_back(wl.kernel_s());
      b.traced.push_back(traced ? 1 : 0);
    }
    b.counters = s.profile().totals;
    t2 = clk::now();
  });
  const auto t3 = clk::now();
  b.ctor_s = seconds_between(t0, t1);
  b.dtor_s = seconds_between(t2, t3);
  log.add("pool ctor", "", "sched", t0, t1, sname);
  log.add("pool block", "", "bench", t1, t2, sname);
  log.add("pool dtor", "", "sched", t2, t3, sname);
  log.on = false;
  return b;
}

struct sched_samples {
  std::vector<double> rounds_s;       // wall time
  std::vector<double> scaled_s;       // at the nominal host speed
  std::vector<char> traced;
  std::vector<double> self_s;         // round minus its kernels' own spans
  std::vector<double> block_medians;  // at the nominal host speed
  std::vector<double> pool_s;         // construction + teardown, scaled
  stats::op_counters counters;

  void add(const block_result& b, double scale) {
    block_medians.push_back(scale * median(b.rounds_s));
    pool_s.push_back(scale * (b.ctor_s + b.dtor_s));
    rounds_s.insert(rounds_s.end(), b.rounds_s.begin(), b.rounds_s.end());
    for (const double r : b.rounds_s) scaled_s.push_back(scale * r);
    traced.insert(traced.end(), b.traced.begin(), b.traced.end());
    for (std::size_t i = 0; i < b.rounds_s.size(); ++i) {
      double kernels = 0;
      for (const double k : b.kernel_s[i]) kernels += k;
      self_s.push_back(b.rounds_s[i] - kernels);
    }
    counters += b.counters;
  }
};

struct protocol_result {
  std::array<sched_samples, kNumScheds> per;
  std::vector<double> gen_s;  // input generation per cycle, scaled
  std::vector<double> host_ref_s;
  int cycles = 0;
};

// Cycles of one fresh-pool block per scheduler, in an order rotated every
// cycle so drift spreads evenly, until `seconds` have passed: a new cycle
// starts only if it is expected to end within half a cycle of the
// deadline. The host-speed reference runs before every block. Each cycle
// also regenerates the inputs from the seed and checks them bit-for-bit
// against the inputs in use.
template <typename W, typename Make>
protocol_result run_protocol(W& wl, Make make, std::uint64_t seed,
                             double seconds, int rounds_per_block,
                             std::size_t workers, span_mode mode,
                             span_log& log, tally& t) {
  protocol_result res;
  const auto start = clk::now();
  double last_cycle = 0;
  for (int c = 0; c < kMinCycles || seconds_between(start, clk::now()) +
                                            last_cycle / 2 <
                                        seconds;
       ++c) {
    const auto cs = clk::now();
    double gen_s = 0;
    {
      const auto g0 = clk::now();
      const W fresh = make(seed);
      gen_s = seconds_between(g0, clk::now());
      const bool same_inputs = fresh.same_inputs(wl);
      if (!same_inputs) std::fprintf(stderr, "input regeneration differs\n");
      t.count(same_inputs);
    }
    for (std::size_t i = 0; i < kNumScheds; ++i) {
      const sched_kind kind =
          all_sched_kinds[(i + static_cast<std::size_t>(c)) % kNumScheds];
      const double ref = host_reference_seconds(workers);
      res.host_ref_s.push_back(ref);
      const double scale = kHostRefNominalS / ref;
      const block_result b =
          run_block(wl, kind, workers, rounds_per_block, mode, log, t);
      if (i == 0) res.gen_s.push_back(scale * gen_s);
      res.per[static_cast<std::size_t>(kind)].add(b, scale);
    }
    res.cycles = c + 1;
    last_cycle = seconds_between(cs, clk::now());
  }
  return res;
}

// Profile-derived counts (exact, not timed).
struct layer_counts {
  double steals = 0;
  double sync_per_fork = 0;
  double steals_per_kfork = 0;
  double steal_success = 0;
  double exposed_not_stolen = 0;
  double signals_per_steal = 0;
  double parks_per_round = 0;
};

layer_counts derive(const stats::op_counters& c, std::size_t rounds) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  layer_counts l;
  l.steals = d(c.steals);
  l.sync_per_fork = ratio(d(c.fences) + d(c.cas), d(c.pushes));
  l.steals_per_kfork = 1000.0 * ratio(l.steals, d(c.pushes));
  l.steal_success = ratio(l.steals, d(c.steal_attempts));
  l.exposed_not_stolen = ratio(d(c.pops_public), d(c.exposures));
  l.signals_per_steal = ratio(d(c.signals_sent), l.steals);
  l.parks_per_round = ratio(d(c.parks), static_cast<double>(rounds));
  return l;
}

// ---- result file -----------------------------------------------------------

struct metric {
  double value;
  const char* unit;
};

// The JSON file check_output.py reads: header fields, per-scheduler
// tables and the metrics, each value with all its digits.
class result_writer {
 public:
  std::map<std::string, metric> metrics;
  std::map<std::string, std::string> header;  // values are JSON literals
  std::map<std::string, std::map<std::string, double>> tables;

  static std::string str(std::string_view s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out + "\"";
  }
  static std::string num(double v) {
    if (!std::isfinite(v)) return "NaN";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  bool write(const std::string& path) const {
    std::string s = "{";
    const auto key = [&s](std::string_view sep, std::string_view k) {
      s += sep;
      s += str(k);
      s += ':';
    };
    for (const auto& [k, v] : header) {
      key("\n", k);
      s += v;
      s += ',';
    }
    for (const auto& [name, rows] : tables) {
      key("\n", name);
      s += '{';
      std::string_view sep;
      for (const auto& [k, v] : rows) {
        key(sep, k);
        s += num(v);
        sep = ",";
      }
      s += "},";
    }
    key("\n", "metrics");
    s += '{';
    std::string_view sep = "\n";
    for (const auto& [k, m] : metrics) {
      key(sep, k);
      s += "{\"value\":";
      s += num(m.value);
      s += ",\"unit\":";
      s += str(m.unit);
      s += '}';
      sep = ",\n";
    }
    s += "}}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    return std::fclose(f) == 0 && ok;
  }
};

void add_tables(result_writer& w, const protocol_result& res) {
  w.header["cycles"] = result_writer::num(res.cycles);
  w.header["host_ref_ms"] = result_writer::num(1e3 * median(res.host_ref_s));
  for (const sched_kind kind : all_sched_kinds) {
    const char* s = to_string(kind);
    const sched_samples& ss = res.per[static_cast<std::size_t>(kind)];
    const layer_counts l = derive(ss.counters, ss.rounds_s.size());
    const auto [lo, hi] =
        std::minmax_element(ss.block_medians.begin(), ss.block_medians.end());
    w.tables["samples"][s] = static_cast<double>(ss.rounds_s.size());
    w.tables["block_spread"][s] = ratio(*hi, *lo);
    w.tables["raw_median_ms"][s] = 1e3 * median(ss.rounds_s);
    w.tables["steals"][s] = l.steals;
    w.tables["steals_per_kfork"][s] = l.steals_per_kfork;
    w.tables["sync_per_fork"][s] = l.sync_per_fork;
    w.tables["parks_per_round"][s] = l.parks_per_round;
  }
}

// End-to-end times at the nominal host speed (see kHostRefNominalS); the
// wall-time medians stay in the result file's raw_median_ms table. One
// cycle's set-up is its input generation plus one pool of each kind built
// and torn down. Each part is a median over the run, because a pool's
// construction now and then waits milliseconds for a descheduled vCPU.
void add_e2e_metrics(result_writer& w, const protocol_result& res) {
  double setup = median(res.gen_s);
  for (const sched_samples& ss : res.per) setup += median(ss.pool_s);
  w.metrics["setup_s"] = {setup, "s"};
  for (const sched_kind kind : all_sched_kinds) {
    const sched_samples& ss = res.per[static_cast<std::size_t>(kind)];
    w.metrics[std::string("makespan_ms.") + to_string(kind)] = {
        1e3 * median(ss.scaled_s), "ms"};
  }
  for (const sched_kind kind : kTailScheds) {
    const sched_samples& ss = res.per[static_cast<std::size_t>(kind)];
    w.metrics[std::string("makespan_tail_ms.") + to_string(kind)] = {
        1e3 * quantile(ss.scaled_s, kTailQ), "ms"};
  }
}

// ---- per-layer probes (--trace 1) -----------------------------------------

int* pop_own(abp_deque<int>& d) { return d.pop_bottom(); }
int* pop_own(split_deque<int>& d) { return d.pop_bottom_original(); }
int* pop_own(wsmult_deque<int>& d) { return d.pop_bottom(); }
int* pop_own(private_deque<int>& d) { return d.pop_bottom(); }

// Single-thread push_bottom + pop_bottom pairs on an otherwise idle deque.
template <typename D>
double push_pop_ns(span_log& log, tally& t, const char* label) {
  D d(kDequeOps);
  int task = 0;
  std::vector<double> per_op;
  bool ok = true;
  const auto p0 = clk::now();
  for (int rep = 0; rep < kDequeReps; ++rep) {
    const auto t0 = clk::now();
    for (int i = 0; i < kDequeOps; ++i) {
      d.push_bottom(&task);
      int* got = pop_own(d);
      keep(got);
      ok = ok && got == &task;
    }
    per_op.push_back(seconds_between(t0, clk::now()) * 1e9 / kDequeOps);
  }
  log.add("probe deque.push_pop ", label, "probe", p0, clk::now(), label);
  t.count(ok);
  return median(per_op);
}

void expose_all(abp_deque<int>&) {}
void expose_all(wsmult_deque<int>&) {}
void expose_all(split_deque<int>& d) {
  while (d.expose_one() != 0) {
  }
}
// The owner's pop after the thieves emptied the deque resets its indices.
void reset_after_steals(abp_deque<int>& d) { (void)d.pop_bottom(); }
void reset_after_steals(wsmult_deque<int>& d) { (void)d.pop_bottom(); }
void reset_after_steals(split_deque<int>& d) { (void)d.pop_public_bottom(); }

// A thief's pop_top on a filled, fully exposed deque (uncontended).
template <typename D>
double steal_ns(span_log& log, tally& t, const char* label) {
  D d(kDequeOps);
  int task = 0;
  std::vector<double> per_op;
  bool ok = true;
  const auto p0 = clk::now();
  for (int rep = 0; rep < kDequeReps; ++rep) {
    for (int i = 0; i < kDequeOps; ++i) d.push_bottom(&task);
    expose_all(d);
    const auto t0 = clk::now();
    for (int i = 0; i < kDequeOps; ++i) {
      const steal_result<int> r = d.pop_top();
      keep(r.task);
      ok = ok && r.status == steal_status::stolen && r.task == &task;
    }
    per_op.push_back(seconds_between(t0, clk::now()) * 1e9 / kDequeOps);
    reset_after_steals(d);
  }
  log.add("probe deque.steal ", label, "probe", p0, clk::now(), label);
  t.count(ok);
  return median(per_op);
}

// A plain recursive fib, timed in this process (the sequential baseline).
double seq_fib_seconds(int n) {
  volatile int vn = n;  // keeps the argument opaque to the optimizer
  std::vector<double> s;
  for (int i = 0; i < kProbeRounds; ++i) {
    const auto t0 = clk::now();
    const std::uint64_t r = seq_fib(vn);
    s.push_back(seconds_between(t0, clk::now()));
    keep(&r);
  }
  return median(s);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool self_test = false;
  std::string out;
  std::string trace_dir;
  std::string rev = "unknown";
};

// Per-layer probes that do not depend on the workload, then the traced
// re-run of the workload for the rest of the time budget.
template <typename W, typename Make>
void run_layers(const options& o, const workload_spec& spec, W& wl, Make make,
                std::size_t workers, span_log& log, tally& t,
                result_writer& w) {
  const auto start = clk::now();
  auto& m = w.metrics;
  log.on = true;
  m["deque.push_pop_ns.abp"] = {push_pop_ns<abp_deque<int>>(log, t, "abp"),
                                "ns"};
  m["deque.push_pop_ns.split"] = {
      push_pop_ns<split_deque<int>>(log, t, "split"), "ns"};
  m["deque.push_pop_ns.wsmult"] = {
      push_pop_ns<wsmult_deque<int>>(log, t, "wsmult"), "ns"};
  m["deque.push_pop_ns.private"] = {
      push_pop_ns<private_deque<int>>(log, t, "private"), "ns"};
  m["deque.steal_ns.abp"] = {steal_ns<abp_deque<int>>(log, t, "abp"), "ns"};
  m["deque.steal_ns.split"] = {steal_ns<split_deque<int>>(log, t, "split"),
                               "ns"};
  m["deque.steal_ns.wsmult"] = {
      steal_ns<wsmult_deque<int>>(log, t, "wsmult"), "ns"};
  log.on = false;

  const double seq_fj = seq_fib_seconds(kForkJoinN);
  const double seq_model = seq_fib_seconds(kForkFineN);
  coarse_set coarse = make_coarse(o.seed);
  irregular_set irregular = make_irregular(o.seed);
  std::string traces = "{";
  for (const sched_kind kind : all_sched_kinds) {
    const char* sn = to_string(kind);
    const std::string s = sn;
    // Runs one probe's pool block with every round spanned, under a span
    // named after the probe.
    const auto probe = [&](const char* name, auto& ks, std::size_t p,
                           int rounds) {
      const auto p0 = clk::now();
      block_result b = run_block(ks, kind, p, rounds, span_mode::all, log, t);
      log.on = true;
      log.add("probe ", name, "probe", p0, clk::now(), sn);
      log.on = false;
      return b;
    };

    // Fork+join overhead at P=1: the pardo tree minus the plain recursion,
    // per fork (pushes counted by profile()).
    fib_set fj{{fib_kernel(kForkJoinN)}};
    const block_result b1 = probe("sched.fork_join", fj, 1, kProbeRounds);
    const double forks = ratio(static_cast<double>(b1.counters.pushes.get()),
                               static_cast<double>(b1.rounds_s.size()));
    const double fj_ns = ratio((median(b1.rounds_s) - seq_fj) * 1e9, forks);
    m["sched.fork_join_ns." + s] = {fj_ns, "ns"};

    // Empty run() after the caller idled: entry, wake-up and exit.
    empty_set rtt{{empty_run_kernel()}, kIdleGap};
    const block_result b2 = probe("sched.run_rtt", rtt, workers, kRttRounds);
    m["sched.run_rtt_us." + s] = {1e6 * median(b2.rounds_s), "us"};

    // Cost model on the fork_fine tree: the share of P * makespan that
    // neither the sequential work nor pushes * fork_join_ns explains.
    fib_set model{{fib_kernel(kForkFineN)}};
    const block_result b3 = probe("model", model, workers, kProbeRounds);
    const double pm = static_cast<double>(workers) * median(b3.rounds_s);
    const double pushes =
        ratio(static_cast<double>(b3.counters.pushes.get()),
              static_cast<double>(b3.rounds_s.size()));
    m["model.overhead_gap." + s] = {
        ratio(pm - seq_model - pushes * fj_ns * 1e-9, pm), "ratio"};

    // Each PBBS kernel's own span (around Bench::run), at the frozen sizes.
    const auto kernel_ms = [&](auto& ks) {
      const block_result b = probe("pbbs.kernel", ks, workers, kProbeRounds);
      const auto names = ks.kernel_names();
      for (std::size_t k = 0; k < names.size(); ++k) {
        std::vector<double> per;
        for (const auto& round : b.kernel_s) per.push_back(round[k]);
        m[std::string("pbbs.kernel_ms.") + names[k] + "." + s] = {
            1e3 * median(per), "ms"};
      }
    };
    kernel_ms(coarse);
    kernel_ms(irregular);

    // The runtime's own event trace (LCWS_TRACE) on pbbs_irregular, for
    // steal resolution latency. The pool rewrites the file at every run()
    // exit, so these rounds are never used as timings.
    const std::string path = o.trace_dir + "/lcws_trace." + s + ".json";
    setenv("LCWS_TRACE", path.c_str(), 1);
    probe("LCWS_TRACE", irregular, workers, kLcwsTraceRounds);
    unsetenv("LCWS_TRACE");
    if (traces.size() > 1) traces += ',';
    traces += result_writer::str(s);
    traces += ':';
    traces += result_writer::str(path);
  }
  w.header["lcws_traces"] = traces + "}";
  const double probes_s = seconds_between(start, clk::now());

  const protocol_result res =
      run_protocol(wl, make, o.seed, o.seconds - probes_s,
                   spec.rounds_per_block, workers, span_mode::alternate, log,
                   t);
  std::fprintf(stderr, "probes %.1f s, traced re-run %.1f s\n", probes_s,
               seconds_between(start, clk::now()) - probes_s);
  add_tables(w, res);

  std::vector<double> overheads;
  for (const sched_kind kind : all_sched_kinds) {
    const std::string s = to_string(kind);
    const sched_samples& ss = res.per[static_cast<std::size_t>(kind)];
    const layer_counts l = derive(ss.counters, ss.rounds_s.size());
    m["sched.sync_per_fork." + s] = {l.sync_per_fork, "1/fork"};
    m["sched.steals_per_kfork." + s] = {l.steals_per_kfork, "1/kfork"};
    m["sched.steal_success." + s] = {l.steal_success, "ratio"};
    m["park.parks_per_round." + s] = {l.parks_per_round, "1/round"};
    m["bench.block_spread." + s] = {w.tables["block_spread"][s], "ratio"};
    const sched_family fam = family_of(kind);
    if (fam == sched_family::user_space || fam == sched_family::signal) {
      m["sched.exposed_not_stolen." + s] = {l.exposed_not_stolen, "ratio"};
    }
    if (fam == sched_family::signal) {
      m["sched.signals_per_steal." + s] = {l.signals_per_steal, "1/steal"};
    }
    std::vector<double> traced;
    std::vector<double> untraced;
    std::vector<double> self;
    for (std::size_t i = 0; i < ss.rounds_s.size(); ++i) {
      if (ss.traced[i] != 0) {
        traced.push_back(ss.rounds_s[i]);
        self.push_back(ss.self_s[i]);
      } else {
        untraced.push_back(ss.rounds_s[i]);
      }
    }
    overheads.push_back(ratio(median(traced), median(untraced)) - 1.0);
    w.tables["round_self_us"][s] = 1e6 * median(self);
  }
  m["bench.trace_overhead"] = {median(overheads), "ratio"};
}

void print_summary(const result_writer& w) {
  std::fprintf(stderr, "cycles %s, host reference %.2f ms (nominal %g)\n",
               w.header.at("cycles").c_str(),
               std::stod(w.header.at("host_ref_ms")), kHostRefNominalS * 1e3);
  std::fprintf(stderr, "%-15s %7s %10s %8s %9s %10s %8s\n", "scheduler",
               "samples", "raw_ms", "spread", "steals/k", "sync/fork",
               "parks/r");
  for (const sched_kind kind : all_sched_kinds) {
    const std::string s = to_string(kind);
    const auto at = [&](const char* table) { return w.tables.at(table).at(s); };
    std::fprintf(stderr, "%-15s %7.0f %10.4f %8.3f %9.4f %10.5f %8.2f\n",
                 s.c_str(), at("samples"), at("raw_median_ms"),
                 at("block_spread"), at("steals_per_kfork"),
                 at("sync_per_fork"), at("parks_per_round"));
  }
}

template <typename W, typename Make>
int run_workload(const options& o, const workload_spec& spec, Make make) {
  const std::size_t nproc = online_cpus();
  const std::size_t workers = std::min(kMaxWorkers, nproc);
  result_writer w;
  w.header["workload"] = result_writer::str(spec.name);
  w.header["seed"] = std::to_string(o.seed);
  w.header["seconds"] = result_writer::num(o.seconds);
  w.header["trace"] = o.trace ? "1" : "0";
  w.header["workers"] = std::to_string(workers);
  w.header["nproc"] = std::to_string(nproc);
  w.header["compiler"] = result_writer::str(__VERSION__);
  w.header["build_type"] = result_writer::str(LCWS_BENCH_BUILD_TYPE);
  w.header["rev"] = result_writer::str(o.rev);
  w.header["rounds_per_block"] = std::to_string(spec.rounds_per_block);
  w.header["tail_quantile"] = result_writer::num(kTailQ);
  std::fprintf(stderr,
               "lcws_bench workload=%s seed=%llu seconds=%g trace=%d P=%zu "
               "nproc=%zu compiler=\"%s\" build=%s rev=%s\n",
               spec.name, static_cast<unsigned long long>(o.seed), o.seconds,
               o.trace ? 1 : 0, workers, nproc, __VERSION__,
               LCWS_BENCH_BUILD_TYPE, o.rev.c_str());

  span_log log;
  tally t;
  W wl = make(o.seed);
  if (o.trace) {
    run_layers(o, spec, wl, make, workers, log, t, w);
    const std::string spans = o.trace_dir + "/spans.json";
    if (!log.write(spans)) {
      std::fprintf(stderr, "cannot write %s\n", spans.c_str());
      return 1;
    }
    w.header["spans"] = result_writer::str(spans);
  } else {
    const protocol_result res =
        run_protocol(wl, make, o.seed, o.seconds, spec.rounds_per_block,
                     workers, span_mode::off, log, t);
    add_tables(w, res);
    add_e2e_metrics(w, res);
  }
  w.header["attempted"] = std::to_string(t.attempted);
  w.header["failed"] = std::to_string(t.failed);
  print_summary(w);
  if (!w.write(o.out)) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  return 0;
}

// Seed 1 must reproduce Bench::make's inputs bit-for-bit, so the PBBS layer
// sees exactly the instances its own tests and figures use.
int self_test() {
  const coarse_set coarse = make_coarse(1);
  const irregular_set irregular = make_irregular(1);
  const auto& [cs, is] = coarse.kernels;
  const auto& [mm, bfs] = irregular.kernels;
  const bool ok[] = {
      same(cs.input(), pbbs::comparison_sort_bench::make("randomSeq_double",
                                                         kSortN)),
      same(is.input(),
           pbbs::integer_sort_bench::make("randomSeq_int", kIntSortN)),
      same(mm.input(),
           pbbs::maximal_matching_bench::make("rMatGraph", kMatchingN)),
      same(bfs.input(), pbbs::bfs_bench::make("3Dgrid", kBfsN)),
  };
  const char* names[] = {"comparisonSort/randomSeq_double",
                         "integerSort/randomSeq_int",
                         "maximalMatching/rMatGraph",
                         "breadthFirstSearch/3Dgrid"};
  int bad = 0;
  for (std::size_t i = 0; i < std::size(ok); ++i) {
    std::printf("self-test %-32s %s\n", names[i], ok[i] ? "ok" : "DIFFERS");
    bad += ok[i] ? 0 : 1;
  }
  return bad == 0 ? 0 : 1;
}

// A stray runtime knob (LCWS_NO_PARKING, LCWS_PIN, ...) would silently
// change what every scheduler does, so the benchmark refuses to run.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LCWS_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const int len = eq == nullptr ? static_cast<int>(std::strlen(*e))
                                    : static_cast<int>(eq - *e);
      std::fprintf(stderr, "refusing to run with %.*s set\n", len, *e);
      clean = false;
    }
  }
  return clean;
}

int usage() {
  std::fprintf(stderr,
               "usage: lcws_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] --out RESULT.json [--trace-dir DIR] "
               "[--rev SHA]\n       lcws_bench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      o.self_test = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out") {
      o.out = argv[++i];
    } else if (arg == "--trace-dir") {
      o.trace_dir = argv[++i];
    } else if (arg == "--rev") {
      o.rev = argv[++i];
    } else {
      return usage();
    }
  }
  if (!environment_clean()) return 2;
  if (o.self_test) return self_test();
  if (o.out.empty() || o.seed == 0 || !(o.seconds > 0) ||
      (o.trace && o.trace_dir.empty())) {
    return usage();
  }
  const std::string_view name = o.workload;
  if (name == "fork_fine") {
    return run_workload<fib_set>(o, kWorkloads[0], make_fork_fine);
  }
  if (name == "pbbs_coarse") {
    return run_workload<coarse_set>(o, kWorkloads[1], make_coarse);
  }
  if (name == "pbbs_irregular") {
    return run_workload<irregular_set>(o, kWorkloads[2], make_irregular);
  }
  if (name == "burst_runs") {
    return run_workload<fib_set>(o, kWorkloads[3], make_burst);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  return usage();
}
