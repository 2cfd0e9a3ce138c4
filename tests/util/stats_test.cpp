#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace bu = balbench::util;

TEST(Stats, MeanBasics) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(bu::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(bu::mean({}), 0.0);
}

TEST(Stats, LogavgIsGeometricMean) {
  std::vector<double> xs{1.0, 100.0};
  EXPECT_NEAR(bu::logavg(xs), 10.0, 1e-12);
  std::vector<double> ys{8.0, 8.0, 8.0};
  EXPECT_NEAR(bu::logavg(ys), 8.0, 1e-12);
}

TEST(Stats, LogavgEmptyIsZero) { EXPECT_DOUBLE_EQ(bu::logavg({}), 0.0); }

TEST(Stats, LogavgClampsNonPositive) {
  // A zero sample must not produce NaN/-inf; it is clamped to the floor
  // and drags the average down hard.
  std::vector<double> xs{0.0, 100.0};
  const double v = bu::logavg(xs, 1e-12);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(v, 1.0);
}

TEST(Stats, Logavg2MatchesPaperFinalStep) {
  // b_eff = logavg(logavg_rings, logavg_random): two-value geometric mean.
  EXPECT_NEAR(bu::logavg2(193.0, 50.0), std::sqrt(193.0 * 50.0), 1e-9);
}

TEST(Stats, LogavgIsBelowArithmeticMeanForSpreadData) {
  std::vector<double> xs{10.0, 1000.0};
  EXPECT_LT(bu::logavg(xs), bu::mean(xs));
}

TEST(Stats, MaxMinSum) {
  std::vector<double> xs{3.0, -1.0, 7.5};
  EXPECT_DOUBLE_EQ(bu::maximum(xs), 7.5);
  EXPECT_DOUBLE_EQ(bu::minimum(xs), -1.0);
  EXPECT_DOUBLE_EQ(bu::sum(xs), 9.5);
  EXPECT_DOUBLE_EQ(bu::maximum({}), 0.0);
}

TEST(Stats, WeightedMeanAccessMethodWeights) {
  // b_eff_io: 25 % initial write, 25 % rewrite, 50 % read.
  std::vector<double> bw{100.0, 200.0, 400.0};
  std::vector<double> w{0.25, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(bu::weighted_mean(bw, w), 0.25 * 100 + 0.25 * 200 + 0.5 * 400);
}

TEST(Stats, WeightedMeanZeroWeights) {
  std::vector<double> bw{100.0};
  std::vector<double> w{0.0};
  EXPECT_DOUBLE_EQ(bu::weighted_mean(bw, w), 0.0);
}

TEST(Stats, AccumulatorTracksAll) {
  bu::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  acc.add(2.0);
  acc.add(6.0);
  acc.add(-2.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
}

// Property sweep: logavg lies between min and max, and is
// scale-equivariant (logavg(c*x) = c*logavg(x)).
class LogavgProperty : public ::testing::TestWithParam<int> {};

TEST_P(LogavgProperty, BoundedAndScaleEquivariant) {
  const int seed = GetParam();
  std::vector<double> xs;
  double v = 1.0 + seed;
  for (int i = 0; i < 10; ++i) {
    v = std::fmod(v * 1.7 + 3.1, 97.0) + 0.5;
    xs.push_back(v);
  }
  const double g = bu::logavg(xs);
  EXPECT_GE(g, bu::minimum(xs) - 1e-9);
  EXPECT_LE(g, bu::maximum(xs) + 1e-9);

  std::vector<double> scaled;
  for (double x : xs) scaled.push_back(4.0 * x);
  EXPECT_NEAR(bu::logavg(scaled), 4.0 * g, 1e-9 * g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogavgProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Robust statistics (median/MAD/bootstrap CI -- the balbench-perf gate)
// ---------------------------------------------------------------------------

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(bu::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(bu::median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(bu::median(std::vector<double>{7.0}), 7.0);
  EXPECT_DOUBLE_EQ(bu::median(std::vector<double>{}), 0.0);
}

TEST(Stats, MedianIgnoresOneWildOutlier) {
  // The whole reason the perf gate uses medians: one 100x-slow sample
  // (page cache miss, scheduler hiccup) must not move the estimate.
  EXPECT_DOUBLE_EQ(bu::median(std::vector<double>{1.0, 1.1, 0.9, 1.0, 100.0}), 1.0);
}

TEST(Stats, MadBasics) {
  // xs = {1,2,3,4,100}: median 3, |x - 3| = {2,1,0,1,97}, MAD = 1.
  EXPECT_DOUBLE_EQ(bu::mad(std::vector<double>{1.0, 2.0, 3.0, 4.0, 100.0}), 1.0);
  EXPECT_DOUBLE_EQ(bu::mad(std::vector<double>{5.0, 5.0, 5.0}), 0.0);
}

TEST(Stats, RobustSummaryIsDeterministic) {
  // Fixed seed, fixed resample count: two calls must agree bitwise, or
  // the perf gate's pass/fail could depend on the run.
  const std::vector<double> xs{1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.15};
  const auto a = bu::robust_summary(xs);
  const auto b = bu::robust_summary(xs);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.mad, b.mad);
  EXPECT_EQ(a.ci_lo, b.ci_lo);
  EXPECT_EQ(a.ci_hi, b.ci_hi);
}

TEST(Stats, RobustSummaryProperties) {
  const std::vector<double> xs{1.0, 1.2, 0.9, 1.1, 1.05};
  const auto s = bu::robust_summary(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.median, 1.05);
  EXPECT_DOUBLE_EQ(s.min, 0.9);
  EXPECT_DOUBLE_EQ(s.max, 1.2);
  // The CI brackets the median and stays inside the sample range (a
  // bootstrap of the median can never leave the observed values).
  EXPECT_LE(s.ci_lo, s.median);
  EXPECT_GE(s.ci_hi, s.median);
  EXPECT_GE(s.ci_lo, s.min);
  EXPECT_LE(s.ci_hi, s.max);
}

TEST(Stats, RobustSummaryTightDataGivesTightCI) {
  // Identical samples: the bootstrap cannot invent spread.
  const auto s = bu::robust_summary(std::vector<double>{2.0, 2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.ci_lo, 2.0);
  EXPECT_DOUBLE_EQ(s.ci_hi, 2.0);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
}

TEST(Stats, RobustSummarySingleSampleFallsBackToRange) {
  const auto s = bu::robust_summary(std::vector<double>{3.5});
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.ci_lo, 3.5);
  EXPECT_DOUBLE_EQ(s.ci_hi, 3.5);
}

TEST(Stats, RobustSummarySeparatesClearlyDifferentPopulations) {
  // The gate's discriminating power: a 3x shift with small noise must
  // produce disjoint CIs beyond the default 10 % slack
  // (history::analyze_trends' regression rule).
  std::vector<double> fast, slow;
  for (int i = 0; i < 5; ++i) {
    fast.push_back(1.0 + 0.01 * i);
    slow.push_back(3.0 + 0.01 * i);
  }
  const auto f = bu::robust_summary(fast);
  const auto s = bu::robust_summary(slow);
  EXPECT_GT(s.ci_lo, f.ci_hi * 1.1);  // regression rule fires
}
