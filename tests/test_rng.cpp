#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace tiv {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(15);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0;
  double ss = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    ss += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(ss / kDraws, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleAndIsHeavyTailed) {
  Rng rng(23);
  int above_10x = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.pareto(2.0, 1.5);
    ASSERT_GE(x, 2.0);
    above_10x += x > 20.0;
  }
  // P(X > 10 xm) = 10^-alpha ~= 3.2% for alpha = 1.5.
  EXPECT_NEAR(static_cast<double>(above_10x) / kDraws, 0.0316, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(25);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(27);
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = rng.sample_without_replacement(100, 30);
    ASSERT_EQ(picks.size(), 30u);
    std::set<std::uint32_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 30u);
    for (auto p : picks) EXPECT_LT(p, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(29);
  const auto picks = rng.sample_without_replacement(10, 10);
  std::set<std::uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
  Rng rng(31);
  std::vector<int> counts(20, 0);
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (auto p : rng.sample_without_replacement(20, 5)) ++counts[p];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 4, kTrials / 4 * 0.1);
  }
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(33);
  Rng child = parent.split();
  // The child stream should not reproduce the parent's.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent() == child();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShufflePermutesAllElements) {
  Rng rng(35);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, WorksWithStdDistributions) {
  Rng rng(37);
  // Satisfies uniform_random_bit_generator: usable with std::shuffle.
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[i], i);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
  Rng rng(GetParam());
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST_P(RngSeedSweep, IndexBoundsHoldAcrossSeeds) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(3), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           ~0ULL));

}  // namespace
}  // namespace tiv
