#include "pbbs/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "pbbs/benchmarks/bfs.h"
#include "pbbs/benchmarks/classify.h"
#include "pbbs/benchmarks/comparison_sort.h"
#include "pbbs/benchmarks/convex_hull.h"
#include "pbbs/benchmarks/histogram.h"
#include "pbbs/benchmarks/integer_sort.h"
#include "pbbs/benchmarks/inverted_index.h"
#include "pbbs/benchmarks/lrs.h"
#include "pbbs/benchmarks/maximal_matching.h"
#include "pbbs/benchmarks/min_spanning_forest.h"
#include "pbbs/benchmarks/mis.h"
#include "pbbs/benchmarks/nbody.h"
#include "pbbs/benchmarks/nearest_neighbors.h"
#include "pbbs/benchmarks/range_query.h"
#include "pbbs/benchmarks/ray_cast.h"
#include "pbbs/benchmarks/remove_duplicates.h"
#include "pbbs/benchmarks/spanning_forest.h"
#include "pbbs/benchmarks/suffix_array.h"
#include "pbbs/benchmarks/word_counts.h"
#include "sched/dispatch.h"
#include "support/timing.h"

namespace lcws::pbbs {
namespace {

// ---- input cache ----------------------------------------------------------

std::mutex g_cache_mutex;
std::map<std::string, std::shared_ptr<void>> g_input_cache;

template <typename Bench>
std::shared_ptr<const typename Bench::input> cached_input(
    const config& cfg, std::size_t size) {
  const std::string key =
      cfg.key() + "#" + std::to_string(size);
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  auto it = g_input_cache.find(key);
  if (it == g_input_cache.end()) {
    auto made = std::make_shared<typename Bench::input>(
        Bench::make(cfg.instance, size));
    it = g_input_cache.emplace(key, std::move(made)).first;
  }
  return std::static_pointer_cast<const typename Bench::input>(it->second);
}

// ---- typed execution ------------------------------------------------------

template <typename Bench>
run_result run_typed(sched_kind kind, std::size_t workers, const config& cfg,
                     std::size_t size, int rounds, bool validate) {
  const auto in = cached_input<Bench>(cfg, size);
  return with_scheduler(kind, workers, [&](auto& sched) {
    run_result result;
    sched.reset_counters();
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(rounds));
    for (int round = 0; round < rounds; ++round) {
      stopwatch sw;
      auto out = Bench::run(sched, *in);
      times.push_back(sw.elapsed_seconds());
      if (validate && round == 0) {
        result.checked = true;
        result.ok = Bench::check(*in, out);
      }
    }
    result.profile = sched.profile();
    std::sort(times.begin(), times.end());
    result.seconds = times[times.size() / 2];
    return result;
  });
}

// Applies `fn` with the benchmark type matching `name`.
template <typename Fn>
auto dispatch_benchmark(std::string_view name, Fn&& fn) {
  if (name == integer_sort_bench::name) {
    return fn(static_cast<integer_sort_bench*>(nullptr));
  }
  if (name == comparison_sort_bench::name) {
    return fn(static_cast<comparison_sort_bench*>(nullptr));
  }
  if (name == histogram_bench::name) {
    return fn(static_cast<histogram_bench*>(nullptr));
  }
  if (name == word_counts_bench::name) {
    return fn(static_cast<word_counts_bench*>(nullptr));
  }
  if (name == inverted_index_bench::name) {
    return fn(static_cast<inverted_index_bench*>(nullptr));
  }
  if (name == remove_duplicates_bench::name) {
    return fn(static_cast<remove_duplicates_bench*>(nullptr));
  }
  if (name == bfs_bench::name) {
    return fn(static_cast<bfs_bench*>(nullptr));
  }
  if (name == maximal_matching_bench::name) {
    return fn(static_cast<maximal_matching_bench*>(nullptr));
  }
  if (name == mis_bench::name) {
    return fn(static_cast<mis_bench*>(nullptr));
  }
  if (name == min_spanning_forest_bench::name) {
    return fn(static_cast<min_spanning_forest_bench*>(nullptr));
  }
  if (name == suffix_array_bench::name) {
    return fn(static_cast<suffix_array_bench*>(nullptr));
  }
  if (name == nbody_bench::name) {
    return fn(static_cast<nbody_bench*>(nullptr));
  }
  if (name == lrs_bench::name) {
    return fn(static_cast<lrs_bench*>(nullptr));
  }
  if (name == range_query_bench::name) {
    return fn(static_cast<range_query_bench*>(nullptr));
  }
  if (name == ray_cast_bench::name) {
    return fn(static_cast<ray_cast_bench*>(nullptr));
  }
  if (name == classify_bench::name) {
    return fn(static_cast<classify_bench*>(nullptr));
  }
  if (name == spanning_forest_bench::name) {
    return fn(static_cast<spanning_forest_bench*>(nullptr));
  }
  if (name == convex_hull_bench::name) {
    return fn(static_cast<convex_hull_bench*>(nullptr));
  }
  if (name == nearest_neighbors_bench::name) {
    return fn(static_cast<nearest_neighbors_bench*>(nullptr));
  }
  throw std::invalid_argument("unknown benchmark: " + std::string(name));
}

}  // namespace

std::vector<std::string> all_benchmarks() {
  return {integer_sort_bench::name,     comparison_sort_bench::name,
          histogram_bench::name,        word_counts_bench::name,
          inverted_index_bench::name,   remove_duplicates_bench::name,
          bfs_bench::name,              maximal_matching_bench::name,
          mis_bench::name,              spanning_forest_bench::name,
          convex_hull_bench::name,      nearest_neighbors_bench::name,
          min_spanning_forest_bench::name, suffix_array_bench::name,
          nbody_bench::name,            lrs_bench::name,
          range_query_bench::name,      ray_cast_bench::name,
          classify_bench::name};
}

std::vector<config> all_configs() {
  std::vector<config> out;
  for (const auto& bench : all_benchmarks()) {
    dispatch_benchmark(bench, [&](auto* tag) {
      using Bench = std::remove_pointer_t<decltype(tag)>;
      for (const auto& instance : Bench::instances()) {
        out.push_back({bench, instance});
      }
    });
  }
  return out;
}

std::size_t default_size(std::string_view benchmark, double scale) {
  // Sized so one sequential run is O(100 ms) on a laptop core; the paper
  // uses 100M-element inputs on server machines — see DESIGN.md.
  std::size_t base = 1000000;
  if (benchmark == "integerSort" || benchmark == "histogram") {
    base = 2000000;
  } else if (benchmark == "wordCounts") {
    base = 500000;
  } else if (benchmark == "invertedIndex") {
    base = 250000;
  } else if (benchmark == "breadthFirstSearch") {
    base = 1000000;
  } else if (benchmark == "maximalMatching" ||
             benchmark == "maximalIndependentSet" ||
             benchmark == "spanningForest" ||
             benchmark == "minSpanningForest") {
    base = 500000;
  } else if (benchmark == "nearestNeighbors" ||
             benchmark == "suffixArray" ||
             benchmark == "longestRepeatedSubstring") {
    base = 300000;
  } else if (benchmark == "nBody") {
    base = 50000;
  } else if (benchmark == "rangeQuery2d") {
    base = 200000;
  } else if (benchmark == "rayCast") {
    base = 100000;
  } else if (benchmark == "classify") {
    base = 100000;
  }
  // The cast to std::size_t is undefined for a non-finite, negative or
  // too-large product, so such a scale is refused like an unknown name.
  const double scaled = static_cast<double>(base) * scale;
  if (!(scale > 0) || !std::isfinite(scaled) ||
      scaled >= static_cast<double>(std::numeric_limits<std::size_t>::max())) {
    throw std::invalid_argument("input scale out of range");
  }
  return std::max<std::size_t>(static_cast<std::size_t>(scaled), 1024);
}

run_result run_config(sched_kind kind, std::size_t workers,
                      const config& cfg, std::size_t size, int rounds,
                      bool validate) {
  return dispatch_benchmark(cfg.benchmark, [&](auto* tag) {
    using Bench = std::remove_pointer_t<decltype(tag)>;
    return run_typed<Bench>(kind, workers, cfg, size, rounds, validate);
  });
}

void clear_input_cache() {
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  g_input_cache.clear();
}

}  // namespace lcws::pbbs
