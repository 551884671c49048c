#include "stream/incremental_severity.hpp"

#include "core/edge_repair.hpp"
#include "util/parallel.hpp"

namespace tiv::stream {

using core::TivAnalyzer;

IncrementalSeverity::IncrementalSeverity(const DelayMatrix& matrix)
    : SeverityEngine(matrix.size(), "view-repair"),
      view_(matrix),
      severities_(TivAnalyzer(matrix).all_severities(&view_)) {}

void IncrementalSeverity::read_severity_row(HostId a,
                                            std::span<float> out) {
  for (HostId b = 0; b < size(); ++b) out[b] = severities_.at(a, b);
}

bool IncrementalSeverity::diff_rows(const DelayMatrix& matrix,
                                    std::span<const HostId> dirty_hosts,
                                    core::EpochScreen& screen) {
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    screen.diff(i, 0, view_.row(dirty_hosts[i]), matrix.size());
  }
  // Every incident edge, each unordered pair once (see the file comment).
  // Unmeasured pairs are included on purpose: an edge that went measured ->
  // missing this epoch must have its stale severity overwritten with the 0
  // the repair stores for it, exactly what a from-scratch rebuild leaves.
  return false;
}

void IncrementalSeverity::update_rows(const DelayMatrix& matrix,
                                      std::span<const HostId> dirty_hosts,
                                      const core::EpochScreen* /*screen*/,
                                      const core::EpochEdges& /*edges*/,
                                      EpochStats& stats) {
  // Row repacks are independent; epochs large enough to matter (bulk churn,
  // initial backfill) spread across the pool, tiny ones stay cheap because
  // parallel_for degenerates to the calling thread.
  parallel_for(dirty_hosts.size(), [&](std::size_t k) {
    view_.repack_row(matrix, dirty_hosts[k]);
  });
  stats.rows_repacked = dirty_hosts.size();
}

void IncrementalSeverity::write_results(const DelayMatrix& matrix,
                                        std::span<const HostId> dirty_hosts,
                                        const core::EpochEdges& edges,
                                        EpochStats& stats) {
  // The one repair loop (core/edge_repair) over the repaired view's rows;
  // SeverityMatrix::set stores its float in both orientations, so each
  // repaired cell is bit-identical to a full rebuild's. The stores run on
  // this thread, not on the pool: they touch a page of every row of the
  // matrix, and the point reads that follow on this thread then find those
  // pages in its TLB (tivbench's in-memory query_us_p50 doubled with the
  // stores spread over the pool workers).
  const HostId n = size();
  result_.resize(dirty_hosts.size() * std::size_t{n});
  stats.edges_recomputed = core::repair_flagged_edges(
      matrix, &view_, dirty_hosts, 0, edges, result_);
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    edges.for_each_in_row(i, 0, n, [&](HostId c) {
      severities_.set(dirty_hosts[i], c, result_[i * n + c]);
    });
  }
}

}  // namespace tiv::stream
