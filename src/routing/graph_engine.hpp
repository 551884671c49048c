// Batched parallel graph engine over the CSR AsGraph.
//
// The seed routing code ran one allocating Dijkstra per source on a pool
// thread: every source paid a fresh dist vector, done vector<bool>, and
// priority_queue backing store (~5 allocations per source), and the
// adjacency scan branched on the role of every entry. The batched drivers
// here run many sources under parallel_for_dynamic with one reusable
// per-thread workspace — dist/hops/route lanes, a done bitset, and manual
// binary-heap storage that keep their capacity across sources and batches,
// so after the first batch at a given graph size the engine performs zero
// per-source heap allocations. The policy phases scan exactly the CSR role
// segment they need (providers, peers, customers) with no branch.
//
// Parity contract: for the same graph, every batched row is exactly equal
// (operator== on delay/hops/class, bitwise for the doubles) to the kept
// scalar reference (`tiv::reference::shortest_paths_from` and
// `policy_routes_to`, in the test-only reference/ library). Both sides
// pop (key, node) lexicographically and scan segments in the same order,
// so even delay ties resolve identically. The differential tests in
// tests/test_routing.cpp and bench_graph_engine's parity cross-check
// enforce this.
//
// Telemetry (docs/OBSERVABILITY.md): counters routing.sources_run,
// routing.heap_pops, routing.edges_relaxed, routing.scratch_allocs (lane or
// heap growth — zero once warm), histogram routing.batch_ns, and tracer
// spans sssp-batch / policy-batch around each driver call.
#pragma once

#include <cstddef>
#include <vector>

#include "routing/policy_routing.hpp"
#include "routing/shortest_path.hpp"
#include "topology/as_graph.hpp"

namespace tiv::routing {

/// Multi-source Dijkstra minimizing experienced delay (hops recorded along
/// the chosen path, for diagnostics). Row r of `out` — out[r * graph.size() + v] — is
/// the path info from sources[r] to v. `out` must hold
/// sources.size() * graph.size() entries. Parallel over sources.
void shortest_paths_batch(const topology::AsGraph& graph,
                          const std::vector<topology::AsId>& sources,
                          PathInfo* out);

/// Convenience overload returning a freshly allocated flat row-major
/// buffer (sources.size() rows of graph.size()).
std::vector<PathInfo> shortest_paths_batch(
    const topology::AsGraph& graph,
    const std::vector<topology::AsId>& sources);

/// Multi-destination valley-free policy routing: the selected route from
/// every AS toward each destination, in O(E log V) per destination (see
/// graph_engine.cpp for the three phases). Row r of `out` — out[r * graph.size() + v] — is the
/// selected route from v toward dests[r]. `out` must hold
/// dests.size() * graph.size() entries. Parallel over destinations.
void policy_routes_batch(const topology::AsGraph& graph,
                         const std::vector<topology::AsId>& dests,
                         Route* out);

/// Convenience overload returning a freshly allocated flat row-major
/// buffer (dests.size() rows of graph.size()).
std::vector<Route> policy_routes_batch(
    const topology::AsGraph& graph,
    const std::vector<topology::AsId>& dests);

/// All node ids of `graph` in order — the all-pairs source/dest set.
std::vector<topology::AsId> all_nodes(const topology::AsGraph& graph);

}  // namespace tiv::routing
