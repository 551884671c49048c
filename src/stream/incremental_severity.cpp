#include "stream/incremental_severity.hpp"

#include "core/edge_repair.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::stream {

using core::TivAnalyzer;

IncrementalSeverity::IncrementalSeverity(const DelayMatrix& matrix)
    : view_(matrix),
      severities_(TivAnalyzer(matrix).all_severities(&view_)) {}

IncrementalSeverity::ApplyStats IncrementalSeverity::apply_epoch(
    const DelayMatrix& matrix, std::span<const HostId> dirty_hosts) {
  core::check_dirty_hosts(dirty_hosts, matrix.size(),
                          "IncrementalSeverity::apply_epoch");
  ApplyStats stats;
  if (dirty_hosts.empty()) return stats;
  obs::Span span("view-repair");
  const HostId n = matrix.size();
  {
    // Diff before the repack, while the view still holds the pre-epoch
    // rows: diff() throws on an out-of-contract change before any row
    // moves, and counts the changed entries.
    obs::Span screen_span("epoch-screen");
    screen_.begin(matrix, dirty_hosts);
    for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
      screen_.diff(i, 0, view_.row(dirty_hosts[i]), n);
    }
    stats.edges_changed = screen_.edges_changed();
  }
  // Row repacks are independent; epochs large enough to matter (bulk churn,
  // initial backfill) spread across the pool, tiny ones stay cheap because
  // parallel_for degenerates to the calling thread.
  parallel_for(dirty_hosts.size(), [&](std::size_t k) {
    view_.repack_row(matrix, dirty_hosts[k]);
  });
  stats.rows_repacked = dirty_hosts.size();

  // Every edge incident to a dirty host, each unordered pair once (the
  // EpochEdges enumeration). This engine does not act on the screen's flags
  // yet (see the file comment). Unmeasured pairs are included on purpose:
  // an edge that went measured -> missing this epoch must have its stale
  // severity overwritten with the 0 the repair stores for it, exactly what
  // a from-scratch rebuild leaves.
  edges_.reset(dirty_hosts, n);
  edges_.flag_all();
  // The one repair loop (core/edge_repair) over the repaired view's rows;
  // SeverityMatrix::set stores its float in both orientations, so each
  // repaired cell is bit-identical to a full rebuild's. The stores run on
  // this thread, not on the pool: they touch a page of every row of the
  // matrix, and the point reads that follow on this thread then find those
  // pages in its TLB (tivbench's in-memory query_us_p50 doubled with the
  // stores spread over the pool workers).
  result_.resize(dirty_hosts.size() * std::size_t{n});
  stats.edges_recomputed = core::repair_flagged_edges(
      matrix, &view_, dirty_hosts, 0, edges_, result_);
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    edges_.for_each_in_row(i, 0, n, [&](HostId c) {
      severities_.set(dirty_hosts[i], c, result_[i * n + c]);
    });
  }
  return stats;
}

}  // namespace tiv::stream
