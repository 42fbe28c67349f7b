// Correctness tests for the 19 PBBS-style workloads: every benchmark's
// parallel output is validated against its sequential oracle, under both a
// baseline WS scheduler and a signal-based LCWS scheduler, for every input
// instance (via the runner, which is also under test here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "pbbs/benchmarks/bfs.h"
#include "pbbs/benchmarks/classify.h"
#include "pbbs/benchmarks/convex_hull.h"
#include "pbbs/benchmarks/integer_sort.h"
#include "pbbs/benchmarks/maximal_matching.h"
#include "pbbs/benchmarks/min_spanning_forest.h"
#include "pbbs/benchmarks/mis.h"
#include "pbbs/benchmarks/nbody.h"
#include "pbbs/benchmarks/nearest_neighbors.h"
#include "pbbs/benchmarks/range_query.h"
#include "pbbs/benchmarks/ray_cast.h"
#include "pbbs/benchmarks/spanning_forest.h"
#include "pbbs/benchmarks/suffix_array.h"
#include "pbbs/runner.h"
#include "sched/scheduler.h"

namespace lcws::pbbs {
namespace {

// Small but non-trivial sizes keep the full matrix fast on one core.
constexpr std::size_t kTestSize = 40000;

// ---------------------------------------------------------------------------
// Full matrix through the runner: every config x {ws, signal}, validated.
// ---------------------------------------------------------------------------

struct matrix_param {
  config cfg;
  sched_kind kind;
};

void PrintTo(const matrix_param& p, std::ostream* os) {
  *os << p.cfg.benchmark << "/" << p.cfg.instance << "@"
      << to_string(p.kind);
}

class PbbsMatrixTest : public ::testing::TestWithParam<matrix_param> {};

TEST_P(PbbsMatrixTest, ValidatedRun) {
  const auto& p = GetParam();
  const auto result =
      run_config(p.kind, 4, p.cfg, kTestSize, /*rounds=*/1,
                 /*validate=*/true);
  EXPECT_TRUE(result.checked);
  EXPECT_TRUE(result.ok) << p.cfg.key() << " failed validation under "
                         << to_string(p.kind);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.profile.totals.tasks_executed, 0u);
}

std::vector<matrix_param> matrix() {
  std::vector<matrix_param> out;
  for (const auto& cfg : all_configs()) {
    for (const auto kind : {sched_kind::ws, sched_kind::signal}) {
      out.push_back({cfg, kind});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PbbsMatrixTest, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<matrix_param>& info) {
      std::string name = info.param.cfg.benchmark + "_" +
                         info.param.cfg.instance + "_" +
                         to_string(info.param.kind);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The remaining three LCWS variants get one representative benchmark each
// (the full matrix over five kinds would double test time for little new
// coverage; scheduler_test already pins their protocols).
TEST(PbbsVariants, UslcwsRunsIntegerSort) {
  const auto r = run_config(sched_kind::uslcws, 4,
                            {"integerSort", "randomSeq_int"}, kTestSize, 1,
                            true);
  EXPECT_TRUE(r.ok);
}

TEST(PbbsVariants, ConservativeRunsBfs) {
  const auto r = run_config(sched_kind::conservative, 4,
                            {"breadthFirstSearch", "rMatGraph"}, kTestSize,
                            1, true);
  EXPECT_TRUE(r.ok);
}

TEST(PbbsVariants, PrivateDequesRunsComparisonSort) {
  const auto r = run_config(sched_kind::private_deques, 4,
                            {"comparisonSort", "randomSeq_double"}, kTestSize,
                            1, true);
  EXPECT_TRUE(r.ok);
}

TEST(PbbsVariants, ExposeHalfRunsConvexHull) {
  const auto r = run_config(sched_kind::expose_half, 4,
                            {"convexHull", "2DinSphere"}, kTestSize, 1,
                            true);
  EXPECT_TRUE(r.ok);
}

// ---------------------------------------------------------------------------
// Runner plumbing
// ---------------------------------------------------------------------------

TEST(Runner, AllConfigsCoversNineteenBenchmarks) {
  const auto benchmarks = all_benchmarks();
  EXPECT_EQ(benchmarks.size(), 19u);
  const auto configs = all_configs();
  EXPECT_GE(configs.size(), 43u);
  for (const auto& cfg : configs) {
    EXPECT_FALSE(cfg.benchmark.empty());
    EXPECT_FALSE(cfg.instance.empty());
    EXPECT_EQ(cfg.key(), cfg.benchmark + "/" + cfg.instance);
  }
}

TEST(Runner, DefaultSizeScales) {
  const auto base = default_size("integerSort");
  EXPECT_EQ(default_size("integerSort", 0.5), base / 2);
  EXPECT_GE(default_size("anything", 1e-9), 1024u);  // floor
  // The size_t cast is undefined for these, so each is refused.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0,
                           1e30}) {
    EXPECT_THROW(default_size("integerSort", bad), std::invalid_argument)
        << bad;
  }
}

TEST(Runner, UnknownBenchmarkThrows) {
  EXPECT_THROW(run_config(sched_kind::ws, 2, {"nope", "x"}, 1000, 1, false),
               std::invalid_argument);
}

TEST(Runner, UnknownInstanceThrows) {
  clear_input_cache();
  EXPECT_THROW(
      run_config(sched_kind::ws, 2, {"integerSort", "nope"}, 1000, 1, false),
      std::invalid_argument);
}

TEST(Runner, InputCacheMakesRepeatRunsConsistent) {
  clear_input_cache();
  const config cfg{"histogram", "randomSeq_256_int"};
  const auto a = run_config(sched_kind::ws, 2, cfg, 20000, 1, true);
  const auto b = run_config(sched_kind::signal, 2, cfg, 20000, 1, true);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  clear_input_cache();
}

// ---------------------------------------------------------------------------
// Direct module-level checks of the graph/geometry oracles themselves
// (guards against a check() that accepts anything).
// ---------------------------------------------------------------------------

TEST(OracleSanity, BfsCheckRejectsWrongDistances) {
  auto in = bfs_bench::make("3Dgrid", 4000);
  ws_scheduler sched(2);
  auto out = bfs_bench::run(sched, in);
  ASSERT_TRUE(bfs_bench::check(in, out));
  out.distance[out.distance.size() / 2] += 1;
  EXPECT_FALSE(bfs_bench::check(in, out));
}

TEST(OracleSanity, MatchingCheckRejectsNonMaximal) {
  auto in = maximal_matching_bench::make("randLocalGraph", 20000);
  ws_scheduler sched(2);
  auto out = maximal_matching_bench::run(sched, in);
  ASSERT_TRUE(maximal_matching_bench::check(in, out));
  ASSERT_FALSE(out.matched_edges.empty());
  out.matched_edges.pop_back();  // drop one edge: still valid, not maximal
  EXPECT_FALSE(maximal_matching_bench::check(in, out));
}

TEST(OracleSanity, MatchingCheckRejectsSharedVertex) {
  auto in = maximal_matching_bench::make("randLocalGraph", 20000);
  ws_scheduler sched(2);
  auto out = maximal_matching_bench::run(sched, in);
  ASSERT_TRUE(maximal_matching_bench::check(in, out));
  out.matched_edges.push_back(out.matched_edges.front());
  EXPECT_FALSE(maximal_matching_bench::check(in, out));
}

TEST(OracleSanity, MisCheckRejectsDependentSet) {
  auto in = mis_bench::make("randLocalGraph", 20000);
  ws_scheduler sched(2);
  auto out = mis_bench::run(sched, in);
  ASSERT_TRUE(mis_bench::check(in, out));
  // Force a violation: add a neighbour of a set member.
  const graph& g = *in.g;
  bool mutated = false;
  for (vertex_id v = 0; v < g.num_vertices() && !mutated; ++v) {
    if (!out.in_set[v]) continue;
    for (const vertex_id w : g.neighbors(v)) {
      out.in_set[w] = 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_FALSE(mis_bench::check(in, out));
}

TEST(OracleSanity, SpanningForestCheckRejectsCycleAndGap) {
  auto in = spanning_forest_bench::make("randLocalGraph", 20000);
  ws_scheduler sched(2);
  auto out = spanning_forest_bench::run(sched, in);
  ASSERT_TRUE(spanning_forest_bench::check(in, out));
  auto with_dup = out;
  with_dup.forest_edges.push_back(with_dup.forest_edges.front());
  EXPECT_FALSE(spanning_forest_bench::check(in, with_dup));  // cycle
  auto with_gap = out;
  with_gap.forest_edges.pop_back();
  EXPECT_FALSE(spanning_forest_bench::check(in, with_gap));  // not spanning
}

TEST(OracleSanity, HullCheckRejectsMissingVertex) {
  auto in = convex_hull_bench::make("2DinSphere", 20000);
  ws_scheduler sched(2);
  auto out = convex_hull_bench::run(sched, in);
  ASSERT_TRUE(convex_hull_bench::check(in, out));
  ASSERT_GE(out.hull.size(), 4u);
  out.hull.erase(out.hull.begin() + 1);  // leaves a point outside
  EXPECT_FALSE(convex_hull_bench::check(in, out));
}

TEST(OracleSanity, KnnCheckRejectsSelfNeighbor) {
  auto in = nearest_neighbors_bench::make("2DinCube", 5000);
  ws_scheduler sched(2);
  auto out = nearest_neighbors_bench::run(sched, in);
  ASSERT_TRUE(nearest_neighbors_bench::check(in, out));
  out.neighbor[0] = 0;
  EXPECT_FALSE(nearest_neighbors_bench::check(in, out));
}

TEST(OracleSanity, SuffixArrayCheckRejectsSwaps) {
  auto in = suffix_array_bench::make("trigramString", 20000);
  ws_scheduler sched(2);
  auto out = suffix_array_bench::run(sched, in);
  ASSERT_TRUE(suffix_array_bench::check(in, out));
  std::swap(out.sa[0], out.sa[out.sa.size() / 2]);
  EXPECT_FALSE(suffix_array_bench::check(in, out));
}

TEST(OracleSanity, SuffixArrayMatchesStdSortOracle) {
  auto in = suffix_array_bench::make("randomString", 2000);
  ws_scheduler sched(2);
  const auto out = suffix_array_bench::run(sched, in);
  // Direct oracle: sort suffix offsets by suffix comparison.
  std::vector<std::uint32_t> expected(in.text->size());
  std::iota(expected.begin(), expected.end(), 0u);
  const std::string_view sv(*in.text);
  std::sort(expected.begin(), expected.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return sv.substr(a) < sv.substr(b);
            });
  EXPECT_EQ(out.sa, expected);
}

TEST(OracleSanity, MsfCheckRejectsWrongEdge) {
  auto in = min_spanning_forest_bench::make("randLocalGraph", 20000);
  ws_scheduler sched(2);
  auto out = min_spanning_forest_bench::run(sched, in);
  ASSERT_TRUE(min_spanning_forest_bench::check(in, out));
  // Replace one forest edge with an arbitrary non-forest edge: the unique
  // MSF no longer matches.
  std::vector<std::uint8_t> used(in.edges.size(), 0);
  for (const auto e : out.forest_edges) used[e] = 1;
  for (std::uint32_t e = 0; e < in.edges.size(); ++e) {
    if (!used[e]) {
      out.forest_edges.back() = e;
      break;
    }
  }
  EXPECT_FALSE(min_spanning_forest_bench::check(in, out));
}

TEST(OracleSanity, NbodyCheckRejectsPerturbedForces) {
  auto in = nbody_bench::make("2DinCube", 4000);
  ws_scheduler sched(2);
  auto out = nbody_bench::run(sched, in);
  ASSERT_TRUE(nbody_bench::check(in, out));
  for (auto& f : out.force) {
    f.x *= 1.2;  // 20% systematic error: far beyond the 2% tolerance
    f.y *= 1.2;
  }
  EXPECT_FALSE(nbody_bench::check(in, out));
}

TEST(OracleSanity, ClassifyCheckRejectsBrokenTree) {
  auto in = classify_bench::make("covtype_like", 20000);
  ws_scheduler sched(2);
  auto out = classify_bench::run(sched, in);
  ASSERT_TRUE(classify_bench::check(in, out));
  // Collapse the tree to a single majority leaf: structurally valid but
  // cannot beat the majority baseline.
  classify_bench::output stump;
  stump.tree.push_back({-1, 0, -1, -1, out.tree.back().leaf_class});
  EXPECT_FALSE(classify_bench::check(in, stump));
}

TEST(OracleSanity, BackForwardBfsMatchesOracle) {
  auto in = bfs_bench::make("backForwardBFS_3Dgrid", 30000);
  ASSERT_TRUE(in.back_forward);
  ws_scheduler sched(2);
  const auto out = bfs_bench::run(sched, in);
  EXPECT_TRUE(bfs_bench::check(in, out));
}

TEST(OracleSanity, RangeQueryCheckRejectsWrongCounts) {
  auto in = range_query_bench::make("2DinCube", 20000);
  ws_scheduler sched(2);
  auto out = range_query_bench::run(sched, in);
  ASSERT_TRUE(range_query_bench::check(in, out));
  out.counts[0] += 1;
  EXPECT_FALSE(range_query_bench::check(in, out));
}

TEST(OracleSanity, RayCastCheckRejectsPerturbedHits) {
  auto in = ray_cast_bench::make("happyRays", 10000);
  ws_scheduler sched(2);
  auto out = ray_cast_bench::run(sched, in);
  ASSERT_TRUE(ray_cast_bench::check(in, out));
  // At least some sampled rays hit the heightfield from above.
  std::size_t hits = 0;
  for (const auto t : out.hit_t) hits += !std::isinf(t);
  EXPECT_GT(hits, out.hit_t.size() / 2);
  for (auto& t : out.hit_t) {
    if (!std::isinf(t)) t *= 1.5;
  }
  EXPECT_FALSE(ray_cast_bench::check(in, out));
}

TEST(OracleSanity, IntegerSortCheckRejectsUnsorted) {
  auto in = integer_sort_bench::make("randomSeq_int", 10000);
  ws_scheduler sched(2);
  auto out = integer_sort_bench::run(sched, in);
  ASSERT_TRUE(integer_sort_bench::check(in, out));
  auto& sorted = std::get<std::vector<std::uint64_t>>(out.sorted);
  std::swap(sorted.front(), sorted.back());
  EXPECT_FALSE(integer_sort_bench::check(in, out));
}

}  // namespace
}  // namespace lcws::pbbs
