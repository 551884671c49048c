// Descriptive statistics used throughout the experiment harnesses:
// percentiles, empirical CDFs, and the "binned error-bar series" that most
// of the paper's figures are built from (median + 10th/90th percentile per
// fixed-width x bin).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace tiv {

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p10 = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

/// p-th percentile (p in [0,100]) by linear interpolation between order
/// statistics. Returns NaN for an empty sample. Copies and sorts internally.
double percentile(std::vector<double> values, double p);

/// Percentile over already-sorted data (ascending). No copy.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Full summary of a sample. Returns a zero summary for empty input.
Summary summarize(std::vector<double> values);

/// Empirical cumulative distribution function of a sample.
///
/// Supports the two query directions the figures need: F(x) for plotting a
/// CDF curve, and the inverse quantile for reading off "percentage of tests
/// with penalty below X".
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> values);

  /// Fraction of samples <= x.
  double fraction_at_most(double x) const;

  /// q-th quantile, q in [0,1].
  double quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  const std::vector<double>& sorted_values() const { return sorted_; }

  /// Evenly spaced (value, cumulative fraction) points for printing a curve.
  /// Returns at most `points` rows, always including min and max.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// One x-bin of a BinnedSeries.
struct Bin {
  double x_center = 0.0;
  std::size_t count = 0;
  double p10 = std::numeric_limits<double>::quiet_NaN();
  double median = std::numeric_limits<double>::quiet_NaN();
  double p90 = std::numeric_limits<double>::quiet_NaN();
  double mean = std::numeric_limits<double>::quiet_NaN();
};

/// Fixed-width binning of (x, y) points, reporting 10th/median/90th
/// percentiles of y per bin — the paper's error-bar plot format (Figs. 4-8,
/// 11, 13, 19).
class BinnedSeries {
 public:
  /// Bins span [x_min, x_max) with the given width. Points outside the span
  /// are clamped into the first/last bin.
  BinnedSeries(double x_min, double x_max, double bin_width);

  void add(double x, double y);
  void add_all(const std::vector<double>& xs, const std::vector<double>& ys);

  /// Percentile bins, skipping empty ones.
  std::vector<Bin> bins() const;

  std::size_t bin_count() const { return ys_.size(); }

 private:
  double x_min_;
  double bin_width_;
  std::vector<std::vector<double>> ys_;
};

/// Absolute-error accumulator used by the embedding evaluations.
class ErrorAccumulator {
 public:
  /// Records a (predicted, actual) pair.
  void add(double predicted, double actual);

  Summary absolute_error() const;   ///< |predicted - actual|
  std::size_t count() const { return abs_.size(); }

 private:
  std::vector<double> abs_;
};

}  // namespace tiv
