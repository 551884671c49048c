#include "meridian/misplacement.hpp"

#include <unordered_set>

#include "delayspace/delay_matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::meridian {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;

// Ring scan over the packed view's masked rows instead of raw
// DelayMatrix::get branches: missing entries are kMaskedDelay (huge), so
// "in Nj's beta-ball" (d_jk <= ball) excludes missing and padding columns
// with no sign test, and a missing d_ik lands outside [lo, hi] on the high
// side — the loop body is branch-free and runs the padded stride in full
// lanes. The two self-columns the branchy scan skips are corrected in
// O(1) afterwards: k == j always enters the ball (view diagonal is 0) but
// sits exactly at d_ij within [lo, hi]; k == i enters only when
// d_ij <= ball (beta >= 1) and its d_ik = 0 is then inside [lo, hi] too
// (lo <= 0), so both corrections only ever decrement in_ball. Produces
// exactly the counts of reference::misplacement_pair_scalar.
PairMisplacement evaluate_pair(const DelayMatrixView& view, HostId i,
                               HostId j, double beta) {
  PairMisplacement out;
  const double d_ij = view.row(i)[j];
  if (d_ij >= DelayMatrixView::kMaskedDelay || d_ij <= 0) return out;
  const double ball = beta * d_ij;
  const double lo = (1.0 - beta) * d_ij;
  const double hi = (1.0 + beta) * d_ij;
  const float* row_j = view.row(j);
  const float* row_i = view.row(i);
  const std::size_t stride = view.stride();
  std::size_t in_ball = 0;
  std::size_t misplaced = 0;
  for (std::size_t k = 0; k < stride; ++k) {
    const double d_jk = row_j[k];
    const bool in = d_jk <= ball;
    const double d_ik = row_i[k];
    const bool mis = in & ((d_ik < lo) | (d_ik > hi));
    in_ball += in;
    misplaced += mis;
  }
  // k == j: d_jj = 0 enters the ball (whenever the ball is non-degenerate),
  // and its d_ij is never misplaced.
  if (ball >= 0.0) --in_ball;
  // k == i enters the ball only when d_ij <= ball, i.e. beta >= 1; then
  // lo = (1-beta)*d_ij <= 0 < hi, so its d_ii = 0 was never misplaced and
  // only in_ball needs the correction.
  if (d_ij <= ball) --in_ball;
  if (in_ball == 0) return out;
  out.d_ij = d_ij;
  out.misplaced_fraction =
      static_cast<double>(misplaced) / static_cast<double>(in_ball);
  out.valid = true;
  return out;
}

std::vector<PairMisplacement> evaluate_all(const DelayMatrix& matrix,
                                           const MisplacementParams& params) {
  const HostId n = matrix.size();
  std::vector<std::pair<HostId, HostId>> pairs;
  if (params.sample_pairs == 0) {
    pairs.reserve(static_cast<std::size_t>(n) * (n - 1));
    for (HostId i = 0; i < n; ++i) {
      for (HostId j = 0; j < n; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
  } else {
    Rng rng(params.seed);
    pairs.reserve(params.sample_pairs);
    // Without replacement (ordered pairs): a duplicate draw would double-
    // count its pair in the fraction/series averages — the same estimator
    // skew PR 1 removed from sampled_severities. Duplicates consume
    // attempts, so near-exhaustive sampling may return fewer pairs rather
    // than loop forever.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(params.sample_pairs * 2);
    std::size_t attempts = 0;
    while (pairs.size() < params.sample_pairs &&
           attempts < params.sample_pairs * 20) {
      ++attempts;
      const auto i = static_cast<HostId>(rng.uniform_index(n));
      const auto j = static_cast<HostId>(rng.uniform_index(n));
      if (i == j || !matrix.has(i, j)) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) |
                                static_cast<std::uint64_t>(j);
      if (!seen.insert(key).second) continue;  // duplicate ordered pair
      pairs.emplace_back(i, j);
    }
  }
  return pair_misplacements(matrix, pairs, params.beta);
}

}  // namespace

std::vector<PairMisplacement> pair_misplacements(
    const DelayMatrix& matrix, std::span<const std::pair<HostId, HostId>> pairs,
    double beta) {
  std::vector<PairMisplacement> results(pairs.size());
  const DelayMatrixView view(matrix);
  parallel_for(pairs.size(), [&](std::size_t p) {
    results[p] = evaluate_pair(view, pairs[p].first, pairs[p].second, beta);
  });
  return results;
}

std::vector<Bin> misplacement_series(const DelayMatrix& matrix,
                                     const MisplacementParams& params) {
  BinnedSeries series(0.0, params.max_delay_ms, params.bin_width_ms);
  for (const PairMisplacement& r : evaluate_all(matrix, params)) {
    if (r.valid) series.add(r.d_ij, r.misplaced_fraction);
  }
  return series.bins();
}

double misplacement_fraction(const DelayMatrix& matrix,
                             const MisplacementParams& params) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const PairMisplacement& r : evaluate_all(matrix, params)) {
    if (r.valid) {
      sum += r.misplaced_fraction;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace tiv::meridian
