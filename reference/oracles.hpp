// Scalar oracles: the seed's branchy, one-element-at-a-time code, kept so
// tests and benches compare the library with an independent implementation
// rather than with itself. Only tests/ and bench/ link tiv_reference;
// libtiv_core defines none of these (CI checks its symbol table).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "meridian/misplacement.hpp"
#include "routing/policy_routing.hpp"
#include "routing/shortest_path.hpp"
#include "stream/delay_stream.hpp"
#include "topology/as_graph.hpp"

namespace tiv::reference {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// Per-edge statistics by a scalar row scan. Counts and max_ratio equal
/// TivAnalyzer::edge_stats exactly; severity and mean_ratio add the same
/// terms in another order, so they agree to ~1e-15 relative.
core::EdgeTivStats edge_stats_scalar(const DelayMatrix& m, HostId a,
                                     HostId c);

/// All-edges severities by the scalar scan; equal to
/// TivAnalyzer::all_severities after the float cast.
core::SeverityMatrix all_severities_reference(const DelayMatrix& m);

/// Edges {a, c}, a < c, whose severity an epoch from `before` to `after`
/// can change, by brute force over every edge and witness: d(a, c)
/// changed, or some witness b with a changed leg d(a, b) or d(b, c)
/// violates (a, c) — both legs and the edge measured, detour = d_ab + d_bc
/// in float, detour < d_ac && detour > 0 — in `before` or in `after`.
/// O(n^3); the oracle core::EpochScreen::flag must equal.
std::vector<std::pair<HostId, HostId>> reachable_edges_scalar(
    const DelayMatrix& before, const DelayMatrix& after);

/// min(direct, best one-hop relay a -> c -> b), +inf when neither exists;
/// DetourRouter::oracle_one_hop equals it bit for bit.
double oracle_one_hop_scalar(const DelayMatrix& m, HostId a, HostId b);

/// Misplacement of the ordered pair (i, j) by a branchy scan over the
/// matrix rows, skipping columns i and j; meridian::pair_misplacements
/// equals it field for field.
meridian::PairMisplacement misplacement_pair_scalar(const DelayMatrix& matrix,
                                                    HostId i, HostId j,
                                                    double beta);

/// Rows that routing::shortest_paths_batch and policy_routes_batch must
/// reproduce exactly: one std::priority_queue Dijkstra per source, and
/// per policy phase toward `dest`.
std::vector<routing::PathInfo> shortest_paths_from(
    const topology::AsGraph& graph, topology::AsId src);

std::vector<routing::Route> policy_routes_to(const topology::AsGraph& graph,
                                             topology::AsId dest);

/// One edge's smoothing state as its own object: a heap ring per
/// windowed-min edge and a copy of the parameters. stream::DelayStream
/// keeps the same state in flat per-edge slots and must produce the same
/// estimates bit for bit.
class EdgeEstimator {
 public:
  explicit EdgeEstimator(const stream::EstimatorParams& params);

  /// Folds one measured sample (>= 0) in and returns the new estimate.
  float update(float sample_ms);

  /// Current estimate; DelayMatrix::kMissing before the first update.
  float estimate() const { return estimate_; }

 private:
  stream::EstimatorParams params_;
  float estimate_ = DelayMatrix::kMissing;
  std::vector<float> ring_;  ///< kWindowedMin only
  std::uint32_t ring_next_ = 0;
  std::uint32_t ring_count_ = 0;
};

}  // namespace tiv::reference
