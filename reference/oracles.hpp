// Scalar oracles: the seed's branchy, one-element-at-a-time code, kept so
// tests and benches compare the library with an independent implementation
// rather than with itself. Only tests/ and bench/ link tiv_reference;
// libtiv_core defines none of these (CI checks its symbol table).
#pragma once

#include <vector>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "routing/policy_routing.hpp"
#include "routing/shortest_path.hpp"
#include "topology/as_graph.hpp"

namespace tiv::reference {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// Per-edge statistics by a scalar row scan. Counts and max_ratio equal
/// TivAnalyzer::edge_stats exactly; severity and mean_ratio add the same
/// terms in another order, so they agree to ~1e-15 relative.
core::EdgeTivStats edge_stats_scalar(const DelayMatrix& m, HostId a,
                                     HostId c);

/// All-edges severities by the scalar scan; equal to
/// TivAnalyzer::all_severities after the float cast.
core::SeverityMatrix all_severities_reference(const DelayMatrix& m);

/// min(direct, best one-hop relay a -> c -> b), +inf when neither exists;
/// DetourRouter::oracle_one_hop equals it bit for bit.
double oracle_one_hop_scalar(const DelayMatrix& m, HostId a, HostId b);

/// Rows that routing::shortest_paths_batch and policy_routes_batch must
/// reproduce exactly: one std::priority_queue Dijkstra per source, and
/// per policy phase toward `dest`.
std::vector<routing::PathInfo> shortest_paths_from(
    const topology::AsGraph& graph, topology::AsId src);

std::vector<routing::Route> policy_routes_to(const topology::AsGraph& graph,
                                             topology::AsId dest);

}  // namespace tiv::reference
