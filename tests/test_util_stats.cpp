#include "util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "util/bits.h"

namespace wb {
namespace {

TEST(Dsp, MeanVarianceStddev) {
  const std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Dsp, VarianceOfSingletonIsZero) {
  const std::vector<double> x = {42.0};
  EXPECT_DOUBLE_EQ(variance(x), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.push(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(RunningStats, ResetRestoresEmpty) {
  RunningStats s;
  s.push(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStats, NumericallyStableLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1'000; ++i) {
    s.push(1e9 + static_cast<double>(i % 2));
  }
  EXPECT_NEAR(s.variance(), 0.25, 1e-3);
}

TEST(BerCounter, CountsErrors) {
  BerCounter c;
  c.add(BitVec{1, 0, 1, 1}, BitVec{1, 1, 1, 0});
  EXPECT_EQ(c.bits(), 4u);
  EXPECT_EQ(c.errors(), 2u);
  EXPECT_DOUBLE_EQ(c.ber(), 0.5);
}

TEST(BerCounter, FloorConventionMatchesPaper) {
  // The paper: 1800 error-free bits reported as BER 5e-4 (roughly 0.5/N).
  BerCounter c;
  c.add_counts(0, 1800);
  EXPECT_NEAR(c.ber_floored(), 2.78e-4, 1e-5);
  EXPECT_DOUBLE_EQ(c.ber(), 0.0);
}

TEST(BerCounter, FloorNotAppliedWhenErrorsExist) {
  BerCounter c;
  c.add_counts(3, 1'000);
  EXPECT_DOUBLE_EQ(c.ber_floored(), 0.003);
}

TEST(BerCounter, AccumulatesAcrossCalls) {
  BerCounter c;
  c.add_counts(1, 100);
  c.add(BitVec{0, 0}, BitVec{1, 1});
  EXPECT_EQ(c.errors(), 3u);
  EXPECT_EQ(c.bits(), 102u);
}

TEST(BerCounter, EmptyIsZero) {
  BerCounter c;
  EXPECT_DOUBLE_EQ(c.ber(), 0.0);
  EXPECT_DOUBLE_EQ(c.ber_floored(), 0.0);
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram h(-2.0, 2.0, 40);
  sim::RngStream rng(5);
  for (int i = 0; i < 10'000; ++i) h.push(rng.normal(0.0, 0.5));
  double integral = 0.0;
  const double bin_width = 4.0 / 40.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    integral += h.density(b) * bin_width;
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 10);
  h.push(-5.0);
  h.push(7.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, UnimodalGaussianHasOneMode) {
  Histogram h(-3.0, 3.0, 48);
  sim::RngStream rng(6);
  for (int i = 0; i < 20'000; ++i) h.push(rng.normal(0.0, 0.6));
  EXPECT_EQ(h.count_modes(), 1u);
}

TEST(Histogram, SeparatedBimodalHasTwoModes) {
  Histogram h(-3.0, 3.0, 48);
  sim::RngStream rng(7);
  for (int i = 0; i < 20'000; ++i) {
    h.push(rng.normal(i % 2 ? 1.0 : -1.0, 0.3));
  }
  EXPECT_EQ(h.count_modes(), 2u);
}

TEST(Histogram, HeavilyOverlappingModesCountAsOne) {
  // Two Gaussians closer than their width merge into a single hump — the
  // valley criterion must not call this bimodal.
  Histogram h(-3.0, 3.0, 48);
  sim::RngStream rng(8);
  for (int i = 0; i < 20'000; ++i) {
    h.push(rng.normal(i % 2 ? 0.3 : -0.3, 0.6));
  }
  EXPECT_EQ(h.count_modes(), 1u);
}

TEST(Histogram, EmptyHasNoModes) {
  Histogram h(0.0, 1.0, 8);
  EXPECT_EQ(h.count_modes(), 0u);
}

TEST(Percentile, KnownQuartiles) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Percentile, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0); }

}  // namespace
}  // namespace wb
