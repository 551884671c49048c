#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace tiv {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.min = values.front();
  s.max = values.back();
  s.p10 = percentile_sorted(values, 10);
  s.median = percentile_sorted(values, 50);
  s.p90 = percentile_sorted(values, 90);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(ss / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

Cdf::Cdf(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::fraction_at_most(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::quantile(double q) const {
  return percentile_sorted(sorted_, q * 100.0);
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) return out;
  points = std::min(points, sorted_.size());
  out.reserve(points);
  const auto n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < points; ++i) {
    // Spread indices evenly, always ending on the final order statistic.
    const std::size_t idx =
        (points == 1) ? sorted_.size() - 1
                      : i * (sorted_.size() - 1) / (points - 1);
    out.emplace_back(sorted_[idx], static_cast<double>(idx + 1) / n);
  }
  return out;
}

BinnedSeries::BinnedSeries(double x_min, double x_max, double bin_width)
    : x_min_(x_min), bin_width_(bin_width) {
  assert(bin_width > 0 && x_max > x_min);
  const auto n =
      static_cast<std::size_t>(std::ceil((x_max - x_min) / bin_width));
  ys_.resize(std::max<std::size_t>(n, 1));
}

void BinnedSeries::add(double x, double y) {
  auto idx = static_cast<std::ptrdiff_t>((x - x_min_) / bin_width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(ys_.size()) - 1);
  ys_[static_cast<std::size_t>(idx)].push_back(y);
}

void BinnedSeries::add_all(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) add(xs[i], ys[i]);
}

std::vector<Bin> BinnedSeries::bins() const {
  std::vector<Bin> out;
  for (std::size_t i = 0; i < ys_.size(); ++i) {
    if (ys_[i].empty()) continue;
    std::vector<double> v = ys_[i];
    std::sort(v.begin(), v.end());
    Bin b;
    b.x_center = x_min_ + (static_cast<double>(i) + 0.5) * bin_width_;
    b.count = v.size();
    b.p10 = percentile_sorted(v, 10);
    b.median = percentile_sorted(v, 50);
    b.p90 = percentile_sorted(v, 90);
    double sum = 0.0;
    for (double y : v) sum += y;
    b.mean = sum / static_cast<double>(v.size());
    out.push_back(b);
  }
  return out;
}

void ErrorAccumulator::add(double predicted, double actual) {
  abs_.push_back(std::abs(predicted - actual));
}

Summary ErrorAccumulator::absolute_error() const { return summarize(abs_); }

}  // namespace tiv
