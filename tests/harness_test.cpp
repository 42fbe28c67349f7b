// Tests for the figure-harness statistics: every figure's box plots,
// averages and percentages flow through these helpers, so they get their
// own oracle checks (the environment parsing too).
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness.h"

namespace lcws::benchh {
namespace {

TEST(HarnessStats, QuantileInterpolates) {
  const std::vector<double> sorted{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.125), 1.5);  // halfway 1 -> 2
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(HarnessStats, BoxOfComputesFiveNumberSummary) {
  const box b = box_of({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.q1, 2);
  EXPECT_DOUBLE_EQ(b.median, 3);
  EXPECT_DOUBLE_EQ(b.q3, 4);
  EXPECT_DOUBLE_EQ(b.max, 5);
  EXPECT_EQ(b.n, 5u);
}

TEST(HarnessStats, BoxOfEmptyAndSingleton) {
  const box empty = box_of({});
  EXPECT_EQ(empty.n, 0u);
  const box one = box_of({7});
  EXPECT_DOUBLE_EQ(one.min, 7);
  EXPECT_DOUBLE_EQ(one.median, 7);
  EXPECT_DOUBLE_EQ(one.max, 7);
  EXPECT_EQ(one.n, 1u);
}

TEST(HarnessStats, MeanAndFractionAbove) {
  const std::vector<double> xs{0.9, 1.0, 1.1, 1.2};
  EXPECT_DOUBLE_EQ(mean_of(xs), 1.05);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 1.0), 0.5);   // strict >
  EXPECT_DOUBLE_EQ(fraction_above(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(fraction_above({}, 1.0), 0.0);
}

TEST(HarnessEnv, ProcsParsing) {
  setenv("LCWS_BENCH_PROCS", "1,3,5", 1);
  EXPECT_EQ(env_procs(), (std::vector<std::size_t>{1, 3, 5}));
  setenv("LCWS_BENCH_PROCS", "garbage", 1);
  EXPECT_EQ(env_procs({2, 4}), (std::vector<std::size_t>{2, 4}));
  unsetenv("LCWS_BENCH_PROCS");
  EXPECT_EQ(env_procs({7}), (std::vector<std::size_t>{7}));
}

TEST(HarnessEnv, ScaleAndRounds) {
  setenv("LCWS_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 0.5);
  // Not a positive number: the fallback, never a negative or zero scale.
  for (const char* bad : {"-1", "0", "garbage"}) {
    setenv("LCWS_BENCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(env_scale(), 0.05) << bad;
    EXPECT_DOUBLE_EQ(env_scale(1.0), 1.0) << bad;
  }
  unsetenv("LCWS_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 0.05);
  setenv("LCWS_BENCH_ROUNDS", "7", 1);
  EXPECT_EQ(env_rounds(), 7);
  setenv("LCWS_BENCH_ROUNDS", "0", 1);
  EXPECT_EQ(env_rounds(), 1);  // floor
  unsetenv("LCWS_BENCH_ROUNDS");
  EXPECT_EQ(env_rounds(), 3);
}

TEST(HarnessEnv, MaxCfgCapsConfigs) {
  setenv("LCWS_BENCH_MAXCFG", "3", 1);
  EXPECT_EQ(env_configs().size(), 3u);
  unsetenv("LCWS_BENCH_MAXCFG");
  EXPECT_GT(env_configs().size(), 40u);
}

TEST(HarnessSweep, IndexAndRatios) {
  // A tiny real sweep: one config, two kinds, one P.
  setenv("LCWS_BENCH_MAXCFG", "1", 1);
  setenv("LCWS_BENCH_SCALE", "0.01", 1);
  setenv("LCWS_BENCH_ROUNDS", "1", 1);
  const auto cells = sweep({sched_kind::ws, sched_kind::uslcws}, {2});
  ASSERT_EQ(cells.size(), 2u);
  const sweep_index index(cells);
  ASSERT_NE(index.find(cells[0].cfg, 2, sched_kind::ws), nullptr);
  ASSERT_NE(index.find(cells[0].cfg, 2, sched_kind::uslcws), nullptr);
  EXPECT_EQ(index.find(cells[0].cfg, 3, sched_kind::ws), nullptr);

  const auto speedups =
      speedups_vs_ws(cells, index, sched_kind::uslcws, 2);
  ASSERT_EQ(speedups.size(), 1u);
  EXPECT_GT(speedups[0], 0.0);

  const auto ratios = counter_ratios(
      cells, index, sched_kind::uslcws, sched_kind::ws, 2,
      [](const stats::profile& p) { return p.totals.pushes; });
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_GT(ratios[0], 0.0);  // both schedulers push tasks
  unsetenv("LCWS_BENCH_MAXCFG");
  unsetenv("LCWS_BENCH_SCALE");
  unsetenv("LCWS_BENCH_ROUNDS");
}

}  // namespace
}  // namespace lcws::benchh
