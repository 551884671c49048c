// The paper's TIV severity metric (§2.1) and its bulk computation.
//
// Edge AC causes a triangle inequality violation with witness B when
// d(A,B) + d(B,C) < d(A,C). The severity of edge AC is
//
//   sev(A,C) = (1/|S|) * sum over violating witnesses B of
//              d(A,C) / (d(A,B) + d(B,C))
//
// i.e. the sum of triangulation ratios of all violations the edge causes,
// normalized by the node-set size. It is 0 for a violation-free edge and
// grows both with the number of violations and with how badly each one
// violates — the two properties §2.1 shows neither the violation count nor
// the mean ratio captures alone. The exact violation predicates (severity
// vs triangle count) are stated once, in core/witness_kernels.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "delayspace/delay_matrix.hpp"

namespace tiv::core {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;

/// Per-edge violation statistics.
struct EdgeTivStats {
  double severity = 0.0;
  std::size_t violation_count = 0;   ///< witnesses B with a violation
  std::size_t witness_count = 0;     ///< witnesses with both legs measured
  double mean_ratio = 0.0;           ///< mean triangulation ratio (0 if none)
  double max_ratio = 0.0;

  /// Fraction of measurable triangles through this edge that violate.
  double violating_fraction() const {
    return witness_count == 0
               ? 0.0
               : static_cast<double>(violation_count) /
                     static_cast<double>(witness_count);
  }
};

/// Dense symmetric matrix of severities (float; same layout rationale as
/// DelayMatrix).
class SeverityMatrix {
 public:
  SeverityMatrix() = default;
  explicit SeverityMatrix(HostId n)
      : n_(n), data_(static_cast<std::size_t>(n) * n, 0.0f) {}

  HostId size() const { return n_; }
  float at(HostId i, HostId j) const {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }
  void set(HostId i, HostId j, float v) {
    data_[static_cast<std::size_t>(i) * n_ + j] = v;
    data_[static_cast<std::size_t>(j) * n_ + i] = v;
  }
  /// Row i (n floats), for a reader that fills the matrix a block at a
  /// time; unlike set, a write through it lands in one orientation only.
  std::span<float> row(HostId i) {
    return {data_.data() + static_cast<std::size_t>(i) * n_, n_};
  }

  /// Severities of all measured edges of `matrix` (unordered pairs).
  std::vector<double> values_for_measured_edges(
      const DelayMatrix& matrix) const;

 private:
  HostId n_ = 0;
  std::vector<float> data_;
};

/// TIV analysis over one delay matrix.
class TivAnalyzer {
 public:
  explicit TivAnalyzer(const DelayMatrix& matrix) : matrix_(matrix) {}
  /// Deleted: the analyzer keeps a reference; a temporary would dangle.
  explicit TivAnalyzer(DelayMatrix&&) = delete;

  /// Severity of one edge; O(N). Returns 0 for unmeasured edges.
  double edge_severity(HostId a, HostId c) const;

  /// Full per-edge statistics; O(N).
  EdgeTivStats edge_stats(HostId a, HostId c) const;

  /// Batched per-edge statistics — the witness-scan path of every per-edge
  /// call (edge_stats and edge_severity are batches of one) and of the
  /// sampled consumers (cluster_tiv_stats, proximity_experiment,
  /// sampled_severities). Each edge runs the lane kernels of
  /// core/witness_kernels.hpp, whose header states the violation
  /// predicates, under parallel_for_dynamic. Every severity equals the
  /// all_severities value for its edge after the float cast, whatever the
  /// batch size or view.
  ///
  /// Pass `view` (a packed view of this analyzer's matrix) to skip the
  /// O(N^2) view build — figure drivers that make several batched calls
  /// should pack once and share it. With view == nullptr a batch large
  /// enough to amortize it (edges * 4 >= N) builds a local view; a smaller
  /// one packs each edge's two rows into per-thread scratch.
  std::vector<EdgeTivStats> edge_stats_batch(
      std::span<const std::pair<HostId, HostId>> edges,
      const DelayMatrixView* view = nullptr) const;

  /// Severity-only batch: same contract as edge_stats_batch, cheaper scan
  /// (no count/max lanes, no mask popcounts).
  std::vector<double> edge_severity_batch(
      std::span<const std::pair<HostId, HostId>> edges,
      const DelayMatrixView* view = nullptr) const;

  /// Violation-count-only batch (EdgeTivStats::violation_count, the
  /// severity predicate): same contract as edge_stats_batch but runs only
  /// the fused count/min kernel — consumers like cluster_tiv_stats that
  /// read nothing else skip the ratio-accumulate pass and the witness
  /// popcounts.
  std::vector<std::size_t> edge_violation_count_batch(
      std::span<const std::pair<HostId, HostId>> edges,
      const DelayMatrixView* view = nullptr) const;

  /// All-edges severity matrix; O(N^3). Runs the tiled, branch-free kernel
  /// over a packed DelayMatrixView (see docs/PERFORMANCE.md), dynamically
  /// scheduled over (a, c) tiles of the upper triangle.
  /// Pass `view` (a packed view of this matrix) to reuse a view the caller
  /// already built; nullptr packs one locally.
  SeverityMatrix all_severities(const DelayMatrixView* view = nullptr) const;

  /// Severities of `count` distinct random measured edges — enough for CDFs
  /// at a fraction of the all-edges cost. Returns (edge, severity) pairs.
  ///
  /// Sampling is without replacement: a pair already drawn is rejected, so
  /// severity CDFs are not skewed by duplicate edges. Rejection sampling
  /// gives up after 30 * count attempts (misses, duplicates, and unmeasured
  /// pairs all consume attempts), so on a sparse matrix — or when count
  /// approaches the number of measured edges — the result may hold fewer
  /// than `count` entries rather than loop forever.
  std::vector<std::pair<std::pair<HostId, HostId>, double>> sampled_severities(
      std::size_t count, std::uint64_t seed = 1234) const;

  /// Fraction of triangles (all three edges measured) that contain at least
  /// one violation — the paper's "around 12% of them violate triangle
  /// inequality" figure for DS^2. Exact over all triangles when
  /// sample_triangles == 0, otherwise Monte Carlo.
  double violating_triangle_fraction(std::size_t sample_triangles = 0,
                                     std::uint64_t seed = 4321) const;

  /// Monte Carlo triangle-violation estimate plus achieved-vs-requested
  /// accounting. The sampler gives up after 30 * requested draws
  /// (unmeasurable triangles consume attempts), so on a mostly-missing
  /// matrix `achieved < requested`; the fraction is then over the achieved
  /// triangles and `exhausted` is set, instead of the shortfall being
  /// silent. Equals violating_triangle_fraction(requested, seed) exactly
  /// for requested > 0. requested == 0 here means "sample nothing"
  /// (fraction 0, achieved 0) — unlike the double-returning wrapper, whose
  /// 0 selects the exact exhaustive mode instead.
  struct TriangleFractionSample {
    double fraction = 0.0;
    std::size_t requested = 0;
    std::size_t achieved = 0;  ///< measurable triangles actually counted
    bool exhausted = false;    ///< attempt budget ran out before `requested`
  };
  TriangleFractionSample violating_triangle_fraction_sampled(
      std::size_t sample_triangles, std::uint64_t seed = 4321) const;

 private:
  const DelayMatrix& matrix_;
};

/// Validates an epoch's dirty-host list against an n-host matrix: strictly
/// ascending (sorted, no duplicates) and every host < n — the shape
/// DelayStream::commit_epoch returns and the repair passes index by.
/// Throws std::invalid_argument naming `who` otherwise. A release-build
/// check: an out-of-range host would index the engines' per-host and
/// per-band tables out of bounds.
void check_dirty_hosts(std::span<const HostId> dirty_hosts, HostId n,
                       const char* who);

}  // namespace tiv::core
