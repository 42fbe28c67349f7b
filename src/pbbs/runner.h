// Benchmark-configuration runner: the glue between the PBBS-style workload
// modules and the figure harnesses.
//
// Section 5 of the paper defines a *benchmark configuration* as the triple
// <benchmark, input_instance, number_of_processors>; every figure
// aggregates over all configurations. This runner enumerates the
// configurations, generates (and caches) inputs, and executes one
// configuration under a given scheduler, returning wall-clock time plus
// the synchronization-operation profile.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sched/policies.h"
#include "stats/counters.h"

namespace lcws::pbbs {

struct config {
  std::string benchmark;
  std::string instance;

  std::string key() const { return benchmark + "/" + instance; }
};

struct run_result {
  double seconds = 0;       // median over rounds of the timed kernel
  bool checked = false;     // whether the output was validated
  bool ok = false;          // validation verdict (when checked)
  stats::profile profile;   // counters aggregated over all rounds
};

// Every <benchmark, instance> pair in the suite.
std::vector<config> all_configs();

// The benchmarks in the suite (names).
std::vector<std::string> all_benchmarks();

// Default input size for a benchmark, scaled by `scale` (1.0 = default).
// Chosen so a single run takes fractions of a second on a laptop core.
// Throws std::invalid_argument unless `scale` is finite and positive and
// the scaled size fits in std::size_t.
std::size_t default_size(std::string_view benchmark, double scale = 1.0);

// Runs one configuration: builds (or reuses) the input, executes `rounds`
// timed repetitions under a fresh scheduler of `kind` with `workers`
// workers, optionally validating the first round's output.
run_result run_config(sched_kind kind, std::size_t workers,
                      const config& cfg, std::size_t size, int rounds = 3,
                      bool validate = false);

// Drops all cached inputs (tests use this to bound memory).
void clear_input_cache();

}  // namespace lcws::pbbs
