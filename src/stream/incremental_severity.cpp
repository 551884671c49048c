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
  // Row repacks are independent; epochs large enough to matter (bulk churn,
  // initial backfill) spread across the pool, tiny ones stay cheap because
  // parallel_for degenerates to the calling thread.
  parallel_for(dirty_hosts.size(), [&](std::size_t k) {
    view_.repack_row(matrix, dirty_hosts[k]);
  });
  stats.rows_repacked = dirty_hosts.size();

  // Every edge incident to a dirty host, each unordered pair once: (h, x)
  // for all x, skipped when x is itself dirty and precedes h (that pair was
  // emitted as (x, h)). Unmeasured pairs are included on purpose — an edge
  // that transitioned measured -> missing this epoch must have its stale
  // severity overwritten with the 0 the batch returns for it, exactly what
  // a from-scratch rebuild would leave there.
  const HostId n = matrix.size();
  std::vector<std::uint8_t> dirty(n, 0);
  for (const HostId h : dirty_hosts) dirty[h] = 1;
  std::vector<std::pair<HostId, HostId>> edges;
  edges.reserve(dirty_hosts.size() * (n - 1));
  for (const HostId h : dirty_hosts) {
    for (HostId x = 0; x < n; ++x) {
      if (x == h || (dirty[x] && x < h)) continue;
      edges.emplace_back(h, x);
    }
  }
  stats.edges_recomputed = edges.size();

  // edge_severity_batch with an explicit view runs witness_ratio_accumulate
  // over the full padded stride and witness_ratio_reduce — the identical
  // float sequence the all_severities kernel produces for that edge — and
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
