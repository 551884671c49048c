// Dirty-edge severity maintenance — the streaming engine's O(n^3) ->
// O(dirty * n^2) reduction.
//
// sev(x, y) depends on d(x, y) and on the witness legs d(x, w), d(w, y).
// The entry d(a, b) therefore appears in sev(x, y) iff a or b is an
// endpoint of (x, y): as the edge's own delay when {x, y} == {a, b}, or as
// a witness leg through w == b (resp. w == a) when x or y equals a (resp.
// b). An epoch that perturbed the host set H can thus change only edges
// incident to H — |H| * (n - 1) of them, deduplicated — and every other
// severity is untouched.
//
// Most of those cannot change either: a changed entry {x, w} reaches edge
// (x, c) only through witness w's term, and a term that is 0 before and
// after the epoch leaves the sum bit for bit as it was (core/epoch_screen).
// apply_epoch runs the screen's diff first — the dirty rows of the view,
// still pre-epoch, against the mutated matrix — which rejects a change
// outside the dirty-host contract before any state moves and counts the
// changed entries. It still recomputes every incident edge. Acting on the
// screen's flags, as ShardStreamEngine does, is measured and left for
// later: it cuts this engine's epoch ~38x on tivbench's analyze-batch,
// whose loop keeps a record per epoch, so that run's peak RSS grows with
// the epoch rate past the metric's 10% bound (docs/PERFORMANCE.md,
// "Screened epoch repair"; ROADMAP items 1 and 9).
//
// The packed view is repaired next. Its encoding is row-local — an edge
// update (a, b) changes exactly rows a and b (delays and missing bitmask)
// — so repacking the dirty hosts' rows (DelayMatrixView::repack_row, which
// reuses pack_row_segment, the single definition of the encoding) costs
// O(dirty * n) and leaves the view byte-identical to a from-scratch build
// over the mutated matrix. The incident edges are then recomputed by the
// flagged-edge repair loop both engines share (core/edge_repair) over the
// repaired view's rows. It runs the same witness-ratio lanes and the same
// witness_ratio_reduce over the same packed rows as the from-scratch
// all_severities kernel, so the maintained matrix is *bit-identical* to a
// full rebuild after every epoch — asserted by tests/test_stream_engine.cpp
// over randomized update sequences.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/epoch_screen.hpp"
#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "stream/delay_stream.hpp"

namespace tiv::stream {

using core::SeverityMatrix;
using delayspace::DelayMatrixView;

class IncrementalSeverity {
 public:
  /// Accounting for one apply_epoch call.
  struct ApplyStats {
    std::size_t rows_repacked = 0;
    /// Changed unordered entries the screen's diff found.
    std::size_t edges_changed = 0;
    /// Edges recomputed: every edge incident to a dirty host (0 for a
    /// clean epoch).
    std::size_t edges_recomputed = 0;
  };

  /// Packs the view and computes the full severity matrix once — the only
  /// O(n^3) step; every epoch after is proportional to the churn.
  explicit IncrementalSeverity(const DelayMatrix& matrix);

  /// Current severities, synchronized to the last applied epoch.
  const SeverityMatrix& severities() const { return severities_; }
  /// The packed view, synchronized to the last applied epoch — byte-
  /// identical to a DelayMatrixView built from the current matrix.
  const DelayMatrixView& view() const { return view_; }

  /// Repairs view and severities after an epoch that dirtied
  /// `dirty_hosts` (sorted, distinct — what DelayStream::commit_epoch
  /// returns). `matrix` must be the stream's mutated matrix. Throws
  /// std::invalid_argument, before touching any state, on an unsorted,
  /// duplicate or out-of-range host list (core::check_dirty_hosts) and on
  /// a changed entry with an endpoint outside `dirty_hosts`.
  ApplyStats apply_epoch(const DelayMatrix& matrix,
                         std::span<const HostId> dirty_hosts);

  /// Convenience: commit the stream's pending epoch and apply it.
  ApplyStats apply_epoch(DelayStream& stream) {
    const Epoch epoch = stream.commit_epoch();
    return apply_epoch(stream.matrix(), epoch.dirty_hosts);
  }

 private:
  DelayMatrixView view_;
  SeverityMatrix severities_;
  core::EpochScreen screen_;
  core::EpochEdges edges_;
  std::vector<float> result_;  ///< the repair's result rows, |H| x n
};

}  // namespace tiv::stream
