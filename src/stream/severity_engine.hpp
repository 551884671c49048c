// The live severity engine: one epoch, two stores.
//
// sev(x, y) depends on d(x, y) and on the witness legs d(x, w), d(w, y).
// The entry d(a, b) therefore appears in sev(x, y) iff a or b is an
// endpoint of (x, y): as the edge's own delay when {x, y} == {a, b}, or as
// a witness leg through w == b (resp. w == a) when x or y equals a (resp.
// b). An epoch that perturbed the host set H can thus change only edges
// incident to H — |H| * (n - 1) of them, deduplicated — and every other
// severity is untouched. Most of those cannot change either: a changed
// entry {x, w} reaches edge (x, c) only through witness w's term, and a
// term that is 0 before and after the epoch leaves the sum bit for bit as
// it was (core/epoch_screen).
//
// SeverityEngine::apply_epoch is the one epoch body; it never tests which
// store it runs on. The store — the derived class — supplies only the
// steps that touch storage: its pre-epoch rows (for the screen's diff),
// the row update, the result write (the flagged-edge repair loop,
// core/edge_repair, and the store), and the reads, which the base class
// range-checks once for both. RAM (IncrementalSeverity,
// stream/incremental_severity.hpp) and tile files (ShardStreamEngine,
// stream/shard_stream.hpp) are its two implementations; each is the faster
// one on its own workloads. Either keeps its severities bit-identical to a
// from-scratch all_severities of the current matrix after every epoch —
// asserted on both stores by the shared harness (tests/engine_harness.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/epoch_screen.hpp"
#include "delayspace/delay_matrix.hpp"
#include "stream/delay_stream.hpp"

namespace tiv::stream {

using delayspace::DelayMatrix;
using delayspace::HostId;

class SeverityEngine {
 public:
  /// Accounting for one apply_epoch call; a count a store has no use for
  /// reads 0.
  struct EpochStats {
    /// Packed rows repacked (the in-memory view).
    std::size_t rows_repacked = 0;
    /// Input tiles rewritten in place (the tile store).
    std::size_t input_tiles_repacked = 0;
    /// Severity sink tiles rewritten and committed (the tile store).
    std::size_t severity_tiles_committed = 0;
    /// Changed unordered entries the screen's diff found.
    std::size_t edges_changed = 0;
    /// Edges the repair recomputed: those the screen flagged, or every edge
    /// incident to a dirty host when the store's flags were not exact.
    std::size_t edges_recomputed = 0;
  };

  virtual ~SeverityEngine() = default;
  SeverityEngine(const SeverityEngine&) = delete;
  SeverityEngine& operator=(const SeverityEngine&) = delete;

  /// Repairs the store after an epoch that dirtied `dirty_hosts`
  /// (ascending, distinct — what DelayStream::commit_epoch returns).
  /// `matrix` must be the stream's mutated matrix, of the size the engine
  /// was built for. Throws std::invalid_argument, before any row, tile or
  /// severity moves, on a size change, an unsorted, duplicate or
  /// out-of-range host list, and a changed entry with an endpoint outside
  /// `dirty_hosts`.
  EpochStats apply_epoch(const DelayMatrix& matrix,
                         std::span<const HostId> dirty_hosts);

  /// Convenience: commit the stream's pending epoch and apply it.
  EpochStats apply_epoch(DelayStream& stream) {
    const Epoch epoch = stream.commit_epoch();
    return apply_epoch(stream.matrix(), epoch.dirty_hosts);
  }

  /// Severity of edge (a, b), synchronized to the last applied epoch.
  /// Throws std::out_of_range unless a, b < size().
  float severity(HostId a, HostId b) {
    if (a >= n_ || b >= n_) throw_host_out_of_range(a >= n_ ? a : b);
    return read_severity(a, b);
  }
  /// Severity row a into `out`, which must hold exactly size() floats.
  /// Throws std::out_of_range unless a < size(), std::invalid_argument on
  /// another `out` size.
  void severity_row(HostId a, std::span<float> out);

  HostId size() const { return n_; }
  /// Epochs applied so far (clean epochs, which change nothing, excluded).
  std::uint64_t epochs_applied() const { return epochs_applied_; }

 protected:
  /// `epoch_span` names the span an epoch runs in (a literal).
  SeverityEngine(HostId n, const char* epoch_span)
      : n_(n), epoch_span_(epoch_span) {}

  /// Pre-epoch rows: calls screen.diff on every dirty host's row as the
  /// store holds it before this epoch. `screen` has begun on (matrix,
  /// dirty_hosts). Returns whether the screen's flags are exact; false
  /// makes the epoch flag every edge incident to a dirty host.
  virtual bool diff_rows(const DelayMatrix& matrix,
                         std::span<const HostId> dirty_hosts,
                         core::EpochScreen& screen) = 0;
  /// Row update: brings the store's rows of the dirty hosts to `matrix`.
  virtual void update_rows(const DelayMatrix& matrix,
                           std::span<const HostId> dirty_hosts,
                           EpochStats& stats) = 0;
  /// Result write: recomputes the flagged edges from `matrix` and stores
  /// them; sets stats.edges_recomputed.
  virtual void write_results(const DelayMatrix& matrix,
                             std::span<const HostId> dirty_hosts,
                             const core::EpochEdges& edges,
                             EpochStats& stats) = 0;
  /// The reads behind severity and severity_row, called with a, b <
  /// size() and out.size() == size().
  virtual float read_severity(HostId a, HostId b) = 0;
  virtual void read_severity_row(HostId a, std::span<float> out) = 0;

  std::uint64_t epochs_applied_ = 0;

 private:
  [[noreturn]] void throw_host_out_of_range(HostId host) const;

  HostId n_;
  const char* epoch_span_;
  core::EpochScreen screen_;
  core::EpochEdges edges_;
};

}  // namespace tiv::stream
