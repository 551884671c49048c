#include "util/stats.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace tiv {
namespace {

TEST(Percentile, EmptyIsNan) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, SingleValue) {
  EXPECT_DOUBLE_EQ(percentile({3.5}, 0), 3.5);
  EXPECT_DOUBLE_EQ(percentile({3.5}, 100), 3.5);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(Percentile, HandlesUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 50), 3.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200), 3.0);
}

TEST(Summarize, KnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summarize, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Cdf, FractionAtMost) {
  const Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(10.0), 1.0);
}

TEST(Cdf, QuantileRoundTrip) {
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) values.push_back(i);
  const Cdf cdf(values);
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.9), 90.0, 1e-9);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
}

TEST(Cdf, CurveEndsAtExtremesAndIsMonotone) {
  const Cdf cdf({5.0, 1.0, 9.0, 3.0, 7.0});
  const auto curve = cdf.curve(4);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().first, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 9.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
}

TEST(Cdf, EmptyBehaves) {
  const Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.0);
  EXPECT_TRUE(cdf.curve(5).empty());
}

TEST(BinnedSeries, AssignsToCorrectBins) {
  BinnedSeries s(0.0, 100.0, 10.0);
  s.add(5.0, 1.0);
  s.add(15.0, 2.0);
  s.add(15.5, 4.0);
  const auto bins = s.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].x_center, 5.0);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_DOUBLE_EQ(bins[0].median, 1.0);
  EXPECT_DOUBLE_EQ(bins[1].x_center, 15.0);
  EXPECT_EQ(bins[1].count, 2u);
  EXPECT_DOUBLE_EQ(bins[1].median, 3.0);
  EXPECT_DOUBLE_EQ(bins[1].mean, 3.0);
}

TEST(BinnedSeries, ClampsOutOfRangePoints) {
  BinnedSeries s(0.0, 10.0, 10.0);
  s.add(-5.0, 1.0);
  s.add(100.0, 2.0);
  const auto bins = s.bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].count, 2u);
}

TEST(BinnedSeries, SkipsEmptyBins) {
  BinnedSeries s(0.0, 50.0, 10.0);
  s.add(45.0, 1.0);
  const auto bins = s.bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].x_center, 45.0);
}

TEST(BinnedSeries, PercentilesWithinBin) {
  BinnedSeries s(0.0, 10.0, 10.0);
  for (int i = 0; i <= 100; ++i) s.add(5.0, i);
  const auto bins = s.bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_NEAR(bins[0].p10, 10.0, 1e-9);
  EXPECT_NEAR(bins[0].median, 50.0, 1e-9);
  EXPECT_NEAR(bins[0].p90, 90.0, 1e-9);
}

TEST(ErrorAccumulator, AbsoluteError) {
  ErrorAccumulator acc;
  acc.add(12.0, 10.0);
  acc.add(8.0, 10.0);
  acc.add(2.0, 0.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_EQ(acc.absolute_error().count, 3u);
  EXPECT_DOUBLE_EQ(acc.absolute_error().mean, 2.0);
}

// Property sweep: percentile_sorted must agree with a direct definition on
// random samples of several sizes.
class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneInP) {
  std::vector<double> v;
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1u;
  for (int i = 0; i < GetParam(); ++i) {
    state = state * 1664525u + 1013904223u;
    v.push_back(static_cast<double>(state % 1000));
  }
  double prev = -1e300;
  for (double p = 0; p <= 100; p += 7.3) {
    const double q = percentile(v, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST_P(PercentileProperty, BoundedByMinMax) {
  std::vector<double> v;
  unsigned state = static_cast<unsigned>(GetParam()) + 99u;
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < GetParam(); ++i) {
    state = state * 22695477u + 1u;
    const double x = static_cast<double>(state % 5000) / 7.0;
    v.push_back(x);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 100.0}) {
    const double q = percentile(v, p);
    EXPECT_GE(q, lo);
    EXPECT_LE(q, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileProperty,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace tiv
