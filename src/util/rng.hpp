// Deterministic, splittable random number generation.
//
// All experiments in this repository are seeded so every figure is exactly
// reproducible run-to-run. Rng wraps xoshiro256** (public-domain algorithm by
// Blackman & Vigna) seeded through SplitMix64, which is both fast and has
// well-understood statistical quality — std::mt19937_64 would also work but
// its 2.5 KB state makes cheap value-semantic copies (used by split()) less
// attractive.
#pragma once

#include <cstdint>
#include <vector>

namespace tiv {

/// xoshiro256** pseudo random generator with convenience distributions.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be handed to
/// <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Derives an independent generator. The child stream is decorrelated from
  /// the parent by hashing the parent's next output with a distinct constant.
  Rng split();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Pareto (type I) with scale x_m > 0 and shape alpha > 0. Heavy-tailed;
  /// used to model routing-inflation outliers.
  double pareto(double xm, double alpha);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// k distinct indices sampled uniformly from [0, n) (Floyd's algorithm).
  /// Requires k <= n. Result is unsorted.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tiv
