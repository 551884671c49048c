// Ring-membership misplacement analysis (paper Fig. 13).
//
// For an ordered pair (Ni, Nj) at delay d_ij, consider the nodes within
// beta*d_ij of Nj — with the triangle inequality these would all lie within
// [(1-beta) d_ij, (1+beta) d_ij] of Ni and hence in the ring window a query
// through Ni consults. Every such node whose delay to Ni falls outside the
// window is a placement error a real Meridian ring structure cannot avoid.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "util/stats.hpp"

namespace tiv::meridian {

struct MisplacementParams {
  double beta = 0.5;
  double bin_width_ms = 10.0;
  double max_delay_ms = 1000.0;
  /// Sample this many distinct ordered (Ni, Nj) pairs, without replacement
  /// (0 = all pairs; the full scan is O(N^3)). Near-exhaustive sampling may
  /// return fewer pairs than asked (duplicates consume retry attempts).
  std::size_t sample_pairs = 0;
  std::uint64_t seed = 13;
};

/// One ordered pair's result. Valid when d_ij is measured and positive and
/// Nj's beta-ball (other than Ni and Nj themselves) is not empty.
struct PairMisplacement {
  double d_ij = 0.0;
  double misplaced_fraction = 0.0;  ///< of Nj's beta-ball
  bool valid = false;
};

/// The misplacement of each ordered pair, parallelized: one branch-free
/// scan over the rows of one DelayMatrixView of `matrix`.
std::vector<PairMisplacement> pair_misplacements(
    const delayspace::DelayMatrix& matrix,
    std::span<const std::pair<delayspace::HostId, delayspace::HostId>> pairs,
    double beta);

/// Returns the binned series: x = d_ij, y = fraction of Nj's beta-ball that
/// would be misplaced in Ni's rings. Pairs whose beta-ball is empty are
/// skipped. Parallelized.
std::vector<Bin> misplacement_series(const delayspace::DelayMatrix& matrix,
                                     const MisplacementParams& params);

/// Overall misplacement fraction across all sampled pairs (used by tests
/// and the in-text claims bench).
double misplacement_fraction(const delayspace::DelayMatrix& matrix,
                             const MisplacementParams& params);

}  // namespace tiv::meridian
