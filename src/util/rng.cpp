#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace tiv {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 expansion guarantees the xoshiro state is never all-zero.
  for (auto& s : s_) s = splitmix64(seed);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split() {
  // Mixing with a distinct odd constant decorrelates the child stream from
  // the parent's own future outputs.
  return Rng((*this)() ^ 0xd1b54a32d192ed03ULL);
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Lemire's multiply-shift rejection method: unbiased and division-free on
  // the hot path.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = -n % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from zero so log() is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::pareto(double xm, double alpha) {
  assert(xm > 0 && alpha > 0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  assert(k <= n);
  // Floyd's algorithm: O(k) expected time, no O(n) scratch.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  for (std::uint32_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(uniform_index(j + 1));
    bool seen = false;
    for (std::uint32_t v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

}  // namespace tiv
