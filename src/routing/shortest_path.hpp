// Policy-oblivious shortest paths over the AS graph. These are the
// "speed-of-light" delays the Internet would achieve if routing ignored
// business relationships; the gap between these and the policy-routing
// delays is exactly what creates triangle inequality violations.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "topology/as_graph.hpp"

namespace tiv::routing {

struct PathInfo {
  double delay_ms = std::numeric_limits<double>::infinity();
  std::uint32_t hops = 0;

  bool reachable() const {
    return delay_ms != std::numeric_limits<double>::infinity();
  }
};

/// Shortest delays from a set of sources (all of them by default), stored
/// as one flat row-major buffer of num_sources() x size() cells and built
/// by the batched multi-source engine.
class ShortestPathMatrix {
 public:
  /// All-pairs: one row per AS, row index == source id.
  explicit ShortestPathMatrix(const topology::AsGraph& graph);
  /// Source subset: rows follow `sources` order; accessors accept the
  /// original AS ids. Routing thousands of sources over a large topology
  /// no longer materializes all pairs.
  ShortestPathMatrix(const topology::AsGraph& graph,
                     std::vector<topology::AsId> sources);

  double delay(topology::AsId a, topology::AsId b) const {
    return cells_[row_of(a) * n_ + b].delay_ms;
  }
  const PathInfo& info(topology::AsId a, topology::AsId b) const {
    return cells_[row_of(a) * n_ + b];
  }
  /// Full row of one source (size() entries), for bulk consumers.
  const PathInfo* row(topology::AsId a) const {
    return cells_.data() + row_of(a) * n_;
  }

  /// Number of ASes in the underlying graph (columns per row).
  std::size_t size() const { return n_; }
  /// Number of materialized source rows (== size() for all-pairs).
  std::size_t num_sources() const { return cells_.size() / (n_ ? n_ : 1); }

 private:
  std::size_t row_of(topology::AsId a) const {
    return row_index_.empty() ? a : row_index_[a];
  }

  std::size_t n_ = 0;
  std::vector<PathInfo> cells_;  ///< row-major num_sources x n
  /// Source id -> row. Empty for all-pairs (identity); for subsets,
  /// unmapped sources hold kNoRow and accessing them is undefined.
  std::vector<std::uint32_t> row_index_;
};

}  // namespace tiv::routing
