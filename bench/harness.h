// Shared machinery for the figure-reproduction harnesses.
//
// Every harness sweeps benchmark configurations <benchmark, instance, P>
// under one or more schedulers, then aggregates per-configuration speedups
// or counter ratios into the paper's box plots / averages / percentages.
//
// Environment knobs (all optional):
//   LCWS_BENCH_SCALE   input-size multiplier (default 0.05: quick runs
//                      sized for a laptop core; the paper used 100M-element
//                      inputs on 16-64 hardware threads)
//   LCWS_BENCH_ROUNDS  timed repetitions per configuration (default 3)
//   LCWS_BENCH_PROCS   comma list of worker counts (default "1,2,4,8")
//   LCWS_BENCH_MAXCFG  cap on the number of benchmark configs (default all)
//   LCWS_BENCH_JSON    file path: append one JSON object per measured cell
//                      (JSON Lines: benchmark, instance, procs, scheduler,
//                      seconds, the profile counters, and the hw fields)
//                      for offline plotting. `hw` is the perf_counters
//                      availability marker ("available", "partial:...",
//                      "unavailable:..."); the numeric hw fields are 0
//                      unless it says otherwise
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pbbs/runner.h"
#include "sched/policies.h"
#include "support/timing.h"
#include "support/topology.h"

namespace lcws::benchh {

// ---- environment -----------------------------------------------------------

// A scale that is not a finite positive number (0, negative, inf, nan,
// garbage) keeps `fallback`: default_size() casts the scaled size to
// std::size_t.
inline double env_scale(double fallback = 0.05) {
  if (const char* s = std::getenv("LCWS_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0 && std::isfinite(v)) return v;
  }
  return fallback;
}

inline int env_rounds() {
  if (const char* s = std::getenv("LCWS_BENCH_ROUNDS")) {
    return std::max(1, std::atoi(s));
  }
  return 3;
}

inline std::vector<std::size_t> env_procs(
    std::vector<std::size_t> fallback = {1, 2, 4, 8}) {
  const char* s = std::getenv("LCWS_BENCH_PROCS");
  if (s == nullptr) return fallback;
  std::vector<std::size_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::atol(item.c_str());
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
  }
  return out.empty() ? fallback : out;
}

inline std::vector<pbbs::config> env_configs() {
  auto configs = pbbs::all_configs();
  if (const char* s = std::getenv("LCWS_BENCH_MAXCFG")) {
    const std::size_t cap = static_cast<std::size_t>(std::atol(s));
    if (cap > 0 && cap < configs.size()) configs.resize(cap);
  }
  return configs;
}

// ---- statistics ------------------------------------------------------------

struct box {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  std::size_t n = 0;
};

inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

inline box box_of(std::vector<double> xs) {
  box b;
  if (xs.empty()) return b;
  std::sort(xs.begin(), xs.end());
  b.n = xs.size();
  b.min = xs.front();
  b.q1 = quantile(xs, 0.25);
  b.median = quantile(xs, 0.5);
  b.q3 = quantile(xs, 0.75);
  b.max = xs.back();
  return b;
}

inline double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

inline double fraction_above(const std::vector<double>& xs, double threshold) {
  if (xs.empty()) return 0;
  std::size_t n = 0;
  for (const double x : xs) n += x > threshold;
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

// ---- sweep -----------------------------------------------------------------

// One measured cell: a configuration run under one scheduler with P
// workers.
struct cell {
  pbbs::config cfg;
  std::size_t procs = 0;
  sched_kind kind = sched_kind::ws;
  pbbs::run_result result;
};

// Appends measured cells as JSON Lines when LCWS_BENCH_JSON is set.
// Benchmark/instance/scheduler names are identifier-like
// ([A-Za-z0-9_.-]), so plain %s interpolation cannot break the JSON.
inline void maybe_write_json(const std::vector<cell>& cells) {
  const char* path = std::getenv("LCWS_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "LCWS_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  for (const auto& c : cells) {
    const auto& t = c.result.profile.totals;
    const auto& hw = c.result.profile.hw;
    std::fprintf(
        f,
        "{\"benchmark\":\"%s\",\"instance\":\"%s\",\"procs\":%zu,"
        "\"scheduler\":\"%s\",\"seconds\":%.9f,\"fences\":%llu,"
        "\"cas\":%llu,\"steals\":%llu,\"steal_attempts\":%llu,"
        "\"exposures\":%llu,\"unexposures\":%llu,\"signals\":%llu,"
        "\"parks\":%llu,\"wakes\":%llu,\"idle_ns\":%llu,"
        "\"steals_near\":%llu,\"steals_remote\":%llu,"
        "\"hw\":\"%s\",\"cycles\":%llu,\"instructions\":%llu,"
        "\"cache_refs\":%llu,\"cache_misses\":%llu,"
        "\"task_clock_ns\":%llu}\n",
        c.cfg.benchmark.c_str(), c.cfg.instance.c_str(), c.procs,
        to_string(c.kind), c.result.seconds,
        static_cast<unsigned long long>(t.fences),
        static_cast<unsigned long long>(t.cas),
        static_cast<unsigned long long>(t.steals),
        static_cast<unsigned long long>(t.steal_attempts),
        static_cast<unsigned long long>(t.exposures),
        static_cast<unsigned long long>(t.unexposures),
        static_cast<unsigned long long>(t.signals_sent),
        static_cast<unsigned long long>(t.parks),
        static_cast<unsigned long long>(t.wakes),
        static_cast<unsigned long long>(t.idle_ns),
        static_cast<unsigned long long>(t.steals_near),
        static_cast<unsigned long long>(t.steals_remote),
        hw.status.c_str(),
        static_cast<unsigned long long>(hw.cycles),
        static_cast<unsigned long long>(hw.instructions),
        static_cast<unsigned long long>(hw.cache_references),
        static_cast<unsigned long long>(hw.cache_misses),
        static_cast<unsigned long long>(hw.task_clock_ns));
  }
  std::fclose(f);
}

// Runs every config x P x kind; returns cells in deterministic order.
// Progress goes to stderr so figure output stays clean on stdout.
inline std::vector<cell> sweep(const std::vector<sched_kind>& kinds,
                               const std::vector<std::size_t>& procs) {
  const auto configs = env_configs();
  const double scale = env_scale();
  const int rounds = env_rounds();
  std::vector<cell> cells;
  cells.reserve(configs.size() * procs.size() * kinds.size());
  const std::size_t total = configs.size() * procs.size() * kinds.size();
  std::size_t done = 0;
  stopwatch sw;
  for (const auto& cfg : configs) {
    const std::size_t size = pbbs::default_size(cfg.benchmark, scale);
    for (const std::size_t p : procs) {
      for (const sched_kind kind : kinds) {
        cell c;
        c.cfg = cfg;
        c.procs = p;
        c.kind = kind;
        c.result = pbbs::run_config(kind, p, cfg, size, rounds, false);
        cells.push_back(std::move(c));
        ++done;
        if (done % 25 == 0 || done == total) {
          std::fprintf(stderr, "  [%zu/%zu] %.1fs elapsed\n", done, total,
                       sw.elapsed_seconds());
        }
      }
    }
  }
  maybe_write_json(cells);
  return cells;
}

// Index the sweep by (config key, procs, kind).
struct sweep_index {
  std::map<std::string, const cell*> by_key;

  explicit sweep_index(const std::vector<cell>& cells) {
    for (const auto& c : cells) {
      by_key[key(c.cfg, c.procs, c.kind)] = &c;
    }
  }

  static std::string key(const pbbs::config& cfg, std::size_t procs,
                         sched_kind kind) {
    return cfg.key() + "|" + std::to_string(procs) + "|" + to_string(kind);
  }

  const cell* find(const pbbs::config& cfg, std::size_t procs,
                   sched_kind kind) const {
    const auto it = by_key.find(key(cfg, procs, kind));
    return it == by_key.end() ? nullptr : it->second;
  }
};

// Per-config speedup of `kind` relative to the WS baseline at the same P.
inline std::vector<double> speedups_vs_ws(const std::vector<cell>& cells,
                                          const sweep_index& index,
                                          sched_kind kind,
                                          std::size_t procs) {
  std::vector<double> out;
  for (const auto& c : cells) {
    if (c.kind != kind || c.procs != procs) continue;
    const cell* base = index.find(c.cfg, procs, sched_kind::ws);
    if (base == nullptr || c.result.seconds <= 0) continue;
    out.push_back(base->result.seconds / c.result.seconds);
  }
  return out;
}

// Per-config ratio of a counter between two schedulers at the same P.
template <typename Field>
std::vector<double> counter_ratios(const std::vector<cell>& cells,
                                   const sweep_index& index, sched_kind num,
                                   sched_kind den, std::size_t procs,
                                   Field field) {
  std::vector<double> out;
  for (const auto& c : cells) {
    if (c.kind != num || c.procs != procs) continue;
    const cell* base = index.find(c.cfg, procs, den);
    if (base == nullptr) continue;
    const double d = static_cast<double>(field(base->result.profile));
    const double n = static_cast<double>(field(c.result.profile));
    if (d > 0) out.push_back(n / d);
  }
  return out;
}

// ---- output ----------------------------------------------------------------

inline void print_header(const char* figure, const char* what) {
  const auto info = probe_machine();
  std::printf("== %s ==\n%s\n", figure, what);
  std::printf("machine: %zu hw threads | scale=%.3g rounds=%d\n",
              info.logical_cpus, env_scale(), env_rounds());
  std::printf(
      "note: paper machines have 16-64 hw threads; see EXPERIMENTS.md for "
      "the oversubscription caveat\n\n");
}

inline void print_box_row(std::size_t procs, const box& b,
                          const char* unit = "") {
  std::printf(
      "P=%-3zu  min=%-9.4f q1=%-9.4f med=%-9.4f q3=%-9.4f max=%-9.4f "
      "(n=%zu)%s\n",
      procs, b.min, b.q1, b.median, b.q3, b.max, b.n, unit);
}

}  // namespace lcws::benchh
