#include "stream/incremental_severity.hpp"

#include <utility>
#include <vector>

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

  // Every edge incident to a dirty host, each unordered pair once: (h, x)
  // by ascending h, then x, skipping x == h and a dirty x < h (that pair
  // is (x, h)). This engine does not act on the screen's flags yet (see
  // the file comment). Unmeasured pairs are included on purpose — an edge
  // that went measured -> missing this epoch must have its stale severity
  // overwritten with the 0 the batch returns for it, exactly what a
  // from-scratch rebuild leaves.
  edges_.reset(dirty_hosts, n);
  edges_.flag_all();
  std::vector<std::pair<HostId, HostId>>& edges = batch_;
  edges.clear();
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    edges_.for_each_in_row(i, 0, n, [&](HostId x) {
      edges.emplace_back(dirty_hosts[i], x);
    });
  }
  stats.edges_recomputed = edges.size();

  // edge_severity_batch with an explicit view runs the portable ratio body
  // over the full padded stride and witness_ratio_reduce — lanes
  // bit-identical to those the all_severities kernel produces for that
  // edge — and
  // SeverityMatrix::set stores the same float cast, so each repaired cell
  // is bit-identical to a full rebuild's.
  const TivAnalyzer analyzer(matrix);
  const std::vector<double> sevs =
      analyzer.edge_severity_batch(edges, &view_);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    severities_.set(edges[e].first, edges[e].second,
                    static_cast<float>(sevs[e]));
  }
  return stats;
}

}  // namespace tiv::stream
