#include "routing/shortest_path.hpp"

#include <cstdint>
#include <limits>

#include "routing/graph_engine.hpp"

namespace tiv::routing {

using topology::AsGraph;
using topology::AsId;

ShortestPathMatrix::ShortestPathMatrix(const AsGraph& graph)
    : n_(graph.size()), cells_(graph.size() * graph.size()) {
  shortest_paths_batch(graph, all_nodes(graph), cells_.data());
}

ShortestPathMatrix::ShortestPathMatrix(const AsGraph& graph,
                                       std::vector<AsId> sources)
    : n_(graph.size()),
      cells_(sources.size() * graph.size()),
      row_index_(graph.size(), std::numeric_limits<std::uint32_t>::max()) {
  for (std::size_t r = 0; r < sources.size(); ++r) {
    row_index_[sources[r]] = static_cast<std::uint32_t>(r);
  }
  shortest_paths_batch(graph, sources, cells_.data());
}

}  // namespace tiv::routing
