// The in-memory store of the live severity engine (stream/severity_engine):
// the packed DelayMatrixView and the full SeverityMatrix, both in RAM.
//
// Its steps of the one epoch:
//   - pre-epoch rows: the dirty rows of the view, still pre-epoch. This
//     store always answers "flag all": it recomputes every edge incident to
//     a dirty host, though the screen's diff still runs (contract check,
//     edges_changed). Acting on the screen's flags, as the tile store does,
//     is measured and left for later: it cuts this engine's epoch ~38x on
//     tivbench's analyze-batch, whose loop keeps a record per epoch, so
//     that run's peak RSS grows with the epoch rate past the metric's 10%
//     bound (docs/PERFORMANCE.md, "The in-memory store flags every
//     incident edge"; ROADMAP item 13). Flipping diff_rows' answer is the
//     whole change.
//   - row update: the view's encoding is row-local — an edge update (a, b)
//     changes exactly rows a and b (delays and missing bitmask) — so
//     repacking the dirty hosts' rows (DelayMatrixView::repack_row, which
//     reuses pack_row_segment, the single definition of the encoding) costs
//     O(dirty * n) and leaves the view byte-identical to a from-scratch
//     build over the mutated matrix.
//   - result write: the flagged-edge repair loop (core/edge_repair) over
//     the repaired view's rows, stored with SeverityMatrix::set. It runs the
//     same witness-ratio lanes and the same witness_ratio_reduce over the
//     same packed rows as the from-scratch all_severities kernel, so the
//     maintained matrix is bit-identical to a full rebuild.
#pragma once

#include <span>
#include <vector>

#include "core/severity.hpp"
#include "stream/severity_engine.hpp"

namespace tiv::stream {

using core::SeverityMatrix;
using delayspace::DelayMatrixView;

class IncrementalSeverity final : public SeverityEngine {
 public:
  /// Packs the view and computes the full severity matrix once — the only
  /// O(n^3) step; every epoch after is proportional to the churn.
  explicit IncrementalSeverity(const DelayMatrix& matrix);

  /// Current severities, synchronized to the last applied epoch.
  const SeverityMatrix& severities() const { return severities_; }
  /// The packed view, synchronized to the last applied epoch — byte-
  /// identical to a DelayMatrixView built from the current matrix.
  const DelayMatrixView& view() const { return view_; }

 private:
  bool diff_rows(const DelayMatrix& matrix,
                 std::span<const HostId> dirty_hosts,
                 core::EpochScreen& screen) override;
  void update_rows(const DelayMatrix& matrix,
                   std::span<const HostId> dirty_hosts,
                   const core::EpochScreen* screen,
                   const core::EpochEdges& edges,
                   EpochStats& stats) override;
  void write_results(const DelayMatrix& matrix,
                     std::span<const HostId> dirty_hosts,
                     const core::EpochEdges& edges,
                     EpochStats& stats) override;
  float read_severity(HostId a, HostId b) override {
    return severities_.at(a, b);
  }
  void read_severity_row(HostId a, std::span<float> out) override;
  void read_all_severities(core::SeverityMatrix& out) override {
    out = severities_;
  }

  DelayMatrixView view_;
  SeverityMatrix severities_;
  std::vector<float> result_;  ///< the repair's result rows, |H| x n
};

}  // namespace tiv::stream
