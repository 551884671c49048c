#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>

#include "reference/oracles.hpp"

namespace tiv::reference {
namespace {

using routing::PathInfo;
using routing::Route;
using routing::RouteClass;
using topology::AsGraph;
using topology::AsId;
using topology::Role;

// Lexicographic priority key for Dijkstra over routes.
struct Key {
  std::uint8_t cls;
  std::uint32_t hops;
  double delay;
  AsId node;

  bool operator>(const Key& o) const {
    return std::tie(cls, hops, delay, node) >
           std::tie(o.cls, o.hops, o.delay, o.node);
  }
};

using MinQueue = std::priority_queue<Key, std::vector<Key>, std::greater<>>;

/// One adjacency entry as the seed's AsGraph::adjacent(v) listed it.
struct Adjacency {
  AsId neighbor;
  Role role;  ///< how the link looks from v
  double delay_ms;
  double data_delay_ms;
};

/// Calls fn on each entry of v in the seed's adjacency order: providers,
/// then customers, then peers, in link order within each run.
template <typename Fn>
void for_each_adjacent(const AsGraph& graph, AsId v, Fn&& fn) {
  const std::pair<AsGraph::Segment, Role> runs[] = {
      {graph.providers(v), Role::kToProvider},
      {graph.customers(v), Role::kToCustomer},
      {graph.peers(v), Role::kToPeer}};
  for (const auto& [seg, role] : runs) {
    for (std::uint32_t i = 0; i < seg.count; ++i) {
      fn(Adjacency{seg.neighbor[i], role, seg.delay_ms[i],
                   seg.data_delay_ms[i]});
    }
  }
}

}  // namespace

std::vector<PathInfo> shortest_paths_from(const AsGraph& graph, AsId src) {
  std::vector<PathInfo> dist(graph.size());
  using Item = std::pair<double, AsId>;  // (delay, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = {0.0, 0};
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v].delay_ms) continue;  // stale entry
    for_each_adjacent(graph, v, [&](const Adjacency& adj) {
      // Experienced delay: the best physically achievable path including
      // congestion, i.e. what an ideal (policy-free, congestion-aware)
      // routing could deliver.
      const double nd = d + adj.data_delay_ms;
      if (nd < dist[adj.neighbor].delay_ms) {
        dist[adj.neighbor] = {nd, dist[v].hops + 1};
        pq.emplace(nd, adj.neighbor);
      }
    });
  }
  return dist;
}

// The three phases are explained above policy_one in
// src/routing/graph_engine.cpp.
std::vector<Route> policy_routes_to(const AsGraph& graph, AsId dest) {
  const std::size_t n = graph.size();
  std::vector<Route> cust(n);  // best customer-learned route per AS

  // Phase 1: customer routes, flowing up provider chains from dest.
  {
    MinQueue pq;
    cust[dest] = {RouteClass::kCustomer, 0, 0.0, 0.0};
    pq.push({0, 0, 0.0, dest});
    std::vector<bool> done(n, false);
    while (!pq.empty()) {
      const Key k = pq.top();
      pq.pop();
      if (done[k.node]) continue;
      done[k.node] = true;
      for_each_adjacent(graph, k.node, [&](const Adjacency& adj) {
        if (adj.role != Role::kToProvider) return;  // only announce upward
        const Route cand{RouteClass::kCustomer, k.hops + 1,
                         k.delay + adj.delay_ms,
                         cust[k.node].data_delay_ms + adj.data_delay_ms};
        if (cand.better_than(cust[adj.neighbor])) {
          cust[adj.neighbor] = cand;
          pq.push({0, cand.hops, cand.delay_ms, adj.neighbor});
        }
      });
    }
  }

  // Phase 2 + 3 seeds: best of customer route and peer route per AS.
  std::vector<Route> best = cust;
  for (AsId v = 0; v < n; ++v) {
    for_each_adjacent(graph, v, [&](const Adjacency& adj) {
      if (adj.role != Role::kToPeer) return;
      const Route& via = cust[adj.neighbor];
      if (!via.reachable()) return;  // peer only exports customer routes
      const Route cand{RouteClass::kPeer, via.hops + 1,
                       via.delay_ms + adj.delay_ms,
                       via.data_delay_ms + adj.data_delay_ms};
      if (cand.better_than(best[v])) best[v] = cand;
    });
  }

  // Phase 3: provider routes flow down to customers.
  {
    MinQueue pq;
    for (AsId v = 0; v < n; ++v) {
      if (best[v].reachable()) {
        pq.push({static_cast<std::uint8_t>(best[v].cls), best[v].hops,
                 best[v].delay_ms, v});
      }
    }
    std::vector<bool> done(n, false);
    while (!pq.empty()) {
      const Key k = pq.top();
      pq.pop();
      if (done[k.node]) continue;
      // Skip stale queue entries (a better route was settled meanwhile).
      const Route& cur = best[k.node];
      if (static_cast<std::uint8_t>(cur.cls) != k.cls || cur.hops != k.hops ||
          cur.delay_ms != k.delay) {
        continue;
      }
      done[k.node] = true;
      for_each_adjacent(graph, k.node, [&](const Adjacency& adj) {
        if (adj.role != Role::kToCustomer) return;  // export downhill only
        const Route cand{RouteClass::kProvider, cur.hops + 1,
                         cur.delay_ms + adj.delay_ms,
                         cur.data_delay_ms + adj.data_delay_ms};
        if (cand.better_than(best[adj.neighbor])) {
          best[adj.neighbor] = cand;
          pq.push({static_cast<std::uint8_t>(cand.cls), cand.hops,
                   cand.delay_ms, adj.neighbor});
        }
      });
    }
  }
  return best;
}

}  // namespace tiv::reference
