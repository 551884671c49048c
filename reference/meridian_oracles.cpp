#include "reference/oracles.hpp"

namespace tiv::reference {

meridian::PairMisplacement misplacement_pair_scalar(const DelayMatrix& matrix,
                                                    HostId i, HostId j,
                                                    double beta) {
  meridian::PairMisplacement out;
  if (!matrix.has(i, j)) return out;
  const double d_ij = matrix.at(i, j);
  if (d_ij <= 0) return out;
  const double ball = beta * d_ij;
  const double lo = (1.0 - beta) * d_ij;
  const double hi = (1.0 + beta) * d_ij;
  const auto row_j = matrix.row(j);
  const auto row_i = matrix.row(i);
  std::size_t in_ball = 0;
  std::size_t misplaced = 0;
  for (HostId k = 0; k < matrix.size(); ++k) {
    if (k == i || k == j) continue;
    const float d_jk = row_j[k];
    if (d_jk < 0.0f || d_jk > ball) continue;
    ++in_ball;
    const float d_ik = row_i[k];
    if (d_ik < 0.0f || d_ik < lo || d_ik > hi) ++misplaced;
  }
  if (in_ball == 0) return out;
  out.d_ij = d_ij;
  out.misplaced_fraction =
      static_cast<double>(misplaced) / static_cast<double>(in_ball);
  out.valid = true;
  return out;
}

}  // namespace tiv::reference
