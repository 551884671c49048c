// Valley-free (Gao-Rexford) interdomain policy routing.
//
// BGP route selection and export are modeled faithfully at the AS level:
//
//   selection:  customer-learned > peer-learned > provider-learned routes,
//               then fewest AS hops, then lowest delay (tie-break);
//   export:     an AS exports its *selected* route to customers always, and
//               to peers/providers only when that route was learned from a
//               customer (or is its own prefix).
//
// The permitted paths are therefore exactly the valley-free paths
// (uphill customer->provider steps, at most one peer step, then downhill),
// and — crucially for this study — the selected path is often much longer
// than the shortest physical path, because a customer route is preferred
// over a shorter peer or provider route. Running this protocol over the
// synthetic topology is what injects realistic triangle inequality
// violations into the generated delay space.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "topology/as_graph.hpp"

namespace tiv::routing {

/// Which neighbor class a route was learned from (BGP local preference).
enum class RouteClass : std::uint8_t {
  kCustomer = 0,  ///< learned from a customer (or own prefix) — most preferred
  kPeer = 1,
  kProvider = 2,
  kNone = 3,  ///< destination unreachable under policy
};

struct Route {
  RouteClass cls = RouteClass::kNone;
  std::uint32_t hops = 0;
  /// Propagation delay of the selected path (the metric routing optimizes
  /// after class and hop count).
  double delay_ms = std::numeric_limits<double>::infinity();
  /// Experienced delay of the same path including link congestion — what a
  /// measurement between the endpoints would observe. Routing never
  /// consults this value.
  double data_delay_ms = std::numeric_limits<double>::infinity();

  bool reachable() const { return cls != RouteClass::kNone; }

  /// BGP decision order: class, then AS-path length, then delay.
  bool better_than(const Route& o) const {
    if (cls != o.cls) return cls < o.cls;
    if (hops != o.hops) return hops < o.hops;
    return delay_ms < o.delay_ms;
  }
};

/// Ordered-pair route-class totals of a routing matrix, accumulated in one
/// parallel pass at construction (self pairs src == dest excluded).
struct RouteClassCounts {
  /// counts[c] for c in {kCustomer, kPeer, kProvider} — selected-route
  /// class of each reachable ordered pair.
  std::array<std::uint64_t, 3> counts{};
  std::uint64_t unreachable = 0;

  std::uint64_t reachable() const {
    return counts[0] + counts[1] + counts[2];
  }
  std::uint64_t of(RouteClass cls) const {
    return counts[static_cast<std::size_t>(cls)];
  }
};

/// Policy routes toward a set of destinations (all of them by default),
/// stored as one flat row-major buffer of num_dests() x size() cells and
/// built by the batched multi-destination engine.
class PolicyRoutingMatrix {
 public:
  /// All-pairs: one row per destination AS, row index == destination id.
  explicit PolicyRoutingMatrix(const topology::AsGraph& graph);
  /// Destination subset: rows follow `dests` order; accessors accept the
  /// original AS ids. Scenario harnesses can route toward thousands of
  /// destinations without materializing all pairs.
  PolicyRoutingMatrix(const topology::AsGraph& graph,
                      std::vector<topology::AsId> dests);

  /// Selected route from src when the destination is dest.
  const Route& route(topology::AsId src, topology::AsId dest) const {
    return cells_[row_of(dest) * n_ + src];
  }
  double delay(topology::AsId src, topology::AsId dest) const {
    return route(src, dest).delay_ms;
  }
  /// Full row of one destination (size() entries, indexed by source).
  const Route* row(topology::AsId dest) const {
    return cells_.data() + row_of(dest) * n_;
  }

  /// Number of ASes in the underlying graph (columns per row).
  std::size_t size() const { return n_; }
  /// Number of materialized destination rows (== size() for all-pairs).
  std::size_t num_dests() const { return cells_.size() / (n_ ? n_ : 1); }

  /// Route-class totals over the materialized rows, computed once at
  /// construction (the generator ablation bench reads these directly
  /// instead of re-scanning per class).
  const RouteClassCounts& class_counts() const { return class_counts_; }

  /// Fraction of ordered reachable pairs whose selected route has the given
  /// class — a quick structural sanity check (most routes on a healthy
  /// hierarchy are provider or peer routes). O(1): reads class_counts().
  double class_fraction(RouteClass cls) const {
    const std::uint64_t reachable = class_counts_.reachable();
    if (reachable == 0 || cls == RouteClass::kNone) return 0.0;
    return static_cast<double>(class_counts_.of(cls)) /
           static_cast<double>(reachable);
  }

 private:
  std::size_t row_of(topology::AsId dest) const {
    return row_index_.empty() ? dest : row_index_[dest];
  }

  std::size_t n_ = 0;
  std::vector<Route> cells_;  ///< row-major num_dests x n, [dest][src]
  /// Destination id -> row. Empty for all-pairs (identity).
  std::vector<std::uint32_t> row_index_;
  RouteClassCounts class_counts_;
};

}  // namespace tiv::routing
