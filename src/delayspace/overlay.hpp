// Overlay (detour) shortest paths over a measured delay matrix: the best
// multi-hop path through other hosts. For an edge that violates the triangle
// inequality, the overlay shortest path is strictly shorter than the direct
// edge — Fig. 8 plots this length distribution, and the gap is the detour-
// routing gain a TIV-aware overlay can harvest.
#pragma once

#include <cstdint>
#include <vector>

#include "delayspace/delay_matrix.hpp"

namespace tiv::delayspace {

/// All-pairs shortest overlay paths (blocked Floyd-Warshall over a flat
/// float buffer: sequential k, row-block x column-tile relaxation in
/// parallel — bit-identical to the textbook row sweep). Missing direct
/// measurements are treated as absent edges; a pair is still reachable
/// through intermediate hosts. O(N^3) time, O(N^2) space.
class OverlayPaths {
 public:
  explicit OverlayPaths(const DelayMatrix& matrix);

  /// Shortest overlay delay (<= direct delay whenever the direct edge
  /// exists; may pass through any number of intermediate hosts).
  float delay(HostId i, HostId j) const {
    return dist_[static_cast<std::size_t>(i) * n_ + j];
  }

  std::size_t size() const { return n_; }

 private:
  HostId n_ = 0;
  std::vector<float> dist_;
};

}  // namespace tiv::delayspace
