#include "routing/policy_routing.hpp"

#include <atomic>
#include <cstdint>
#include <limits>

#include "routing/graph_engine.hpp"
#include "util/parallel.hpp"

namespace tiv::routing {
namespace {

using topology::AsGraph;
using topology::AsId;

/// One parallel pass over the flat route buffer: per-chunk local totals,
/// one atomic merge per chunk (self cells src == dest excluded).
RouteClassCounts count_classes(const std::vector<Route>& cells, std::size_t n,
                               const std::vector<AsId>& dests) {
  std::array<std::atomic<std::uint64_t>, 4> totals{};
  if (n != 0) {
    parallel_for_dynamic(
        dests.size(), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
          std::array<std::uint64_t, 4> local{};
          for (std::size_t r = begin; r < end; ++r) {
            const AsId dest = dests[r];
            const Route* row = cells.data() + r * n;
            for (std::size_t src = 0; src < n; ++src) {
              if (src == dest) continue;
              ++local[static_cast<std::size_t>(row[src].cls)];
            }
          }
          for (std::size_t i = 0; i < totals.size(); ++i) {
            totals[i].fetch_add(local[i], std::memory_order_relaxed);
          }
        });
  }
  RouteClassCounts counts;
  for (std::size_t i = 0; i < counts.counts.size(); ++i) {
    counts.counts[i] = totals[i].load(std::memory_order_relaxed);
  }
  counts.unreachable = totals[3].load(std::memory_order_relaxed);
  return counts;
}

}  // namespace

PolicyRoutingMatrix::PolicyRoutingMatrix(const AsGraph& graph)
    : n_(graph.size()), cells_(graph.size() * graph.size()) {
  const std::vector<AsId> dests = all_nodes(graph);
  policy_routes_batch(graph, dests, cells_.data());
  class_counts_ = count_classes(cells_, n_, dests);
}

PolicyRoutingMatrix::PolicyRoutingMatrix(const AsGraph& graph,
                                         std::vector<AsId> dests)
    : n_(graph.size()),
      cells_(dests.size() * graph.size()),
      row_index_(graph.size(), std::numeric_limits<std::uint32_t>::max()) {
  for (std::size_t r = 0; r < dests.size(); ++r) {
    row_index_[dests[r]] = static_cast<std::uint32_t>(r);
  }
  policy_routes_batch(graph, dests, cells_.data());
  class_counts_ = count_classes(cells_, n_, dests);
}

}  // namespace tiv::routing
