#include "routing/graph_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::routing {
namespace {

using topology::AsGraph;
using topology::AsId;

// ---------------------------------------------------------------------------
// Telemetry. References resolved once; hot loops accumulate into plain
// locals and flush per chunk (one relaxed add per counter per chunk).

struct RoutingMetrics {
  obs::Counter& sources_run;
  obs::Counter& heap_pops;
  obs::Counter& edges_relaxed;
  obs::Counter& scratch_allocs;
  obs::Histogram& batch_ns;

  static RoutingMetrics& get() {
    static RoutingMetrics m{
        obs::MetricsRegistry::instance().counter("routing.sources_run"),
        obs::MetricsRegistry::instance().counter("routing.heap_pops"),
        obs::MetricsRegistry::instance().counter("routing.edges_relaxed"),
        obs::MetricsRegistry::instance().counter("routing.scratch_allocs"),
        obs::MetricsRegistry::instance().histogram("routing.batch_ns"),
    };
    return m;
  }
};

struct LocalCounts {
  std::uint64_t sources_run = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t edges_relaxed = 0;
  std::uint64_t scratch_allocs = 0;

  void flush() const {
    RoutingMetrics& m = RoutingMetrics::get();
    if (sources_run) m.sources_run.add(sources_run);
    if (heap_pops) m.heap_pops.add(heap_pops);
    if (edges_relaxed) m.edges_relaxed.add(edges_relaxed);
    if (scratch_allocs) m.scratch_allocs.add(scratch_allocs);
  }
};

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// ---------------------------------------------------------------------------
// Scratch. Min-heap over caller-owned storage using the exact
// push_heap/pop_heap-with-greater protocol of std::priority_queue, so the
// pop sequence is identical to the scalar reference's queue even before
// noting that all enqueued keys are distinct (pushes happen only on strict
// improvement, and every key embeds the node id).

template <typename K>
class MinHeap {
 public:
  void clear() { items_.clear(); }  // keeps capacity
  bool empty() const { return items_.empty(); }

  void push(const K& k) {
    items_.push_back(k);
    std::push_heap(items_.begin(), items_.end(), std::greater<>{});
  }
  /// Bulk seeding: append without restoring the heap property, then heapify
  /// once with make_heap (O(n) vs n log n repeated pushes). Because every
  /// enqueued key is distinct, pop order is value-determined and unchanged.
  void push_raw(const K& k) { items_.push_back(k); }
  void heapify() { std::make_heap(items_.begin(), items_.end(), std::greater<>{}); }
  K pop() {
    std::pop_heap(items_.begin(), items_.end(), std::greater<>{});
    const K k = items_.back();
    items_.pop_back();
    return k;
  }

  std::size_t capacity() const { return items_.capacity(); }

 private:
  std::vector<K> items_;
};

/// Fixed-width bitset over reusable words (clearing is a memset of
/// ceil(n/64) words, not n bool writes).
class DoneBits {
 public:
  /// Returns the number of allocations performed (0 or 1).
  std::uint64_t ensure(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    if (words <= words_.size()) return 0;
    const bool grew = words > words_.capacity();
    words_.resize(words);
    return grew ? 1 : 0;
  }
  void reset(std::size_t n) {
    std::fill_n(words_.data(), (n + 63) / 64, std::uint64_t{0});
  }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

 private:
  std::vector<std::uint64_t> words_;
};

template <typename T>
std::uint64_t ensure_lane(std::vector<T>& lane, std::size_t n) {
  if (n <= lane.size()) return 0;
  const bool grew = n > lane.capacity();
  lane.resize(n);
  return grew ? 1 : 0;
}

// Lexicographic priority key for the policy Dijkstra phases; must order
// exactly like the scalar reference's Key (std::tie over cls/hops/delay/
// node).
struct PolicyKey {
  std::uint8_t cls;
  std::uint32_t hops;
  double delay;
  AsId node;

  bool operator>(const PolicyKey& o) const {
    return std::tie(cls, hops, delay, node) >
           std::tie(o.cls, o.hops, o.delay, o.node);
  }
};

using SsspKey = std::pair<double, AsId>;  // (delay, node)

struct SsspWorkspace {
  MinHeap<SsspKey> heap;

  std::uint64_t ensure(std::size_t) { return 0; }  // rows live in `out`
};

struct PolicyWorkspace {
  std::vector<Route> cust;  ///< phase-1 customer routes
  MinHeap<PolicyKey> heap;
  DoneBits done;

  std::uint64_t ensure(std::size_t n) {
    return ensure_lane(cust, n) + done.ensure(n);
  }
};

SsspWorkspace& sssp_workspace() {
  thread_local SsspWorkspace ws;
  return ws;
}

PolicyWorkspace& policy_workspace() {
  thread_local PolicyWorkspace ws;
  return ws;
}

// ---------------------------------------------------------------------------
// Kernels. Each writes one row of the flat output buffer and must produce
// results exactly equal (== on every field) to the scalar references in
// reference/routing_oracles.cpp: same segment scan order
// (providers, customers, peers — the seed's adjacency order), same
// improvement predicates, same heap discipline.

void relax_segment_sssp(const AsGraph::Segment& seg, double d,
                        std::uint32_t hops_next, PathInfo* dist,
                        MinHeap<SsspKey>& heap, LocalCounts& c) {
  for (std::uint32_t i = 0; i < seg.count; ++i) {
    const double nd = d + seg.data_delay_ms[i];
    const AsId w = seg.neighbor[i];
    if (nd < dist[w].delay_ms) {
      dist[w] = {nd, hops_next};
      heap.push({nd, w});
    }
  }
  c.edges_relaxed += seg.count;
}

void sssp_one(const AsGraph& graph, AsId src, PathInfo* dist,
              SsspWorkspace& ws, LocalCounts& c) {
  const std::size_t n = graph.size();
  std::fill_n(dist, n, PathInfo{});
  dist[src] = {0.0, 0};
  ws.heap.clear();
  ws.heap.push({0.0, src});
  while (!ws.heap.empty()) {
    const auto [d, v] = ws.heap.pop();
    ++c.heap_pops;
    if (d > dist[v].delay_ms) continue;  // stale entry
    // Role-oblivious: one contiguous lane scan over all of v's entries
    // (same order as the providers/customers/peers runs back to back).
    relax_segment_sssp(graph.neighbors(v), d, dist[v].hops + 1, dist, ws.heap,
                       c);
  }
  ++c.sources_run;
}

// Valley-free policy routes toward dest — three phases, each a monotone
// lexicographic Dijkstra. tiv::reference::policy_routes_to
// (reference/routing_oracles.cpp) runs the same phases with one
// std::priority_queue each; this kernel must reproduce its rows exactly,
// so keep the two in lockstep when touching either.
//
//  1. Customer routes. A route reaches v "from below" through a chain of
//     provider->customer steps ending at dest. Announcements flow up the
//     provider chains: dest announces to its providers; an AS whose selected
//     route is customer-learned re-announces to *its* providers. Because
//     class dominates the decision process, any AS with a customer route
//     selects its best customer route, so the propagation is a Dijkstra over
//     customer->provider edges keyed by (hops, delay).
//
//  2. Peer routes. v may use peer p's route only if p's selected route is
//     customer-learned (export rule), i.e. p has a phase-1 route. One
//     relaxation step, no propagation (a peer-learned route is never
//     exported to another peer or provider).
//
//  3. Provider routes. A provider exports its selected route — of any class
//     — to its customers. best[] therefore satisfies
//        best[v] = min(best_cust[v], best_peer[v],
//                      min over providers w of extend(best[w]))
//     which is again a Dijkstra: seed the queue with the phase-1/2 routes,
//     pop the globally best route, and relax downhill to customers with
//     class forced to kProvider. Extension strictly increases the
//     (class, hops, delay) key, so settled nodes are final.
void policy_one(const AsGraph& graph, AsId dest, Route* best,
                PolicyWorkspace& ws, LocalCounts& c) {
  const std::size_t n = graph.size();
  Route* cust = ws.cust.data();

  // Phase 1: customer routes, flowing up provider chains from dest.
  std::fill_n(cust, n, Route{});
  cust[dest] = {RouteClass::kCustomer, 0, 0.0, 0.0};
  ws.heap.clear();
  ws.heap.push({0, 0, 0.0, dest});
  ws.done.reset(n);
  while (!ws.heap.empty()) {
    const PolicyKey k = ws.heap.pop();
    ++c.heap_pops;
    if (ws.done.test(k.node)) continue;
    ws.done.set(k.node);
    const AsGraph::Segment prov = graph.providers(k.node);
    const double base_data = cust[k.node].data_delay_ms;
    for (std::uint32_t i = 0; i < prov.count; ++i) {
      const Route cand{RouteClass::kCustomer, k.hops + 1,
                       k.delay + prov.delay_ms[i],
                       base_data + prov.data_delay_ms[i]};
      const AsId w = prov.neighbor[i];
      if (cand.better_than(cust[w])) {
        cust[w] = cand;
        ws.heap.push({0, cand.hops, cand.delay_ms, w});
      }
    }
    c.edges_relaxed += prov.count;
  }

  // Phase 2 + 3 seeds: best of customer route and peer route per AS
  // (a peer exports only customer-learned routes).
  std::copy_n(cust, n, best);
  for (AsId v = 0; v < n; ++v) {
    const AsGraph::Segment peers = graph.peers(v);
    for (std::uint32_t i = 0; i < peers.count; ++i) {
      const Route& via = cust[peers.neighbor[i]];
      if (!via.reachable()) continue;
      const Route cand{RouteClass::kPeer, via.hops + 1,
                       via.delay_ms + peers.delay_ms[i],
                       via.data_delay_ms + peers.data_delay_ms[i]};
      if (cand.better_than(best[v])) best[v] = cand;
    }
    c.edges_relaxed += peers.count;
  }

  // Phase 3: provider routes flow down to customers.
  ws.heap.clear();
  for (AsId v = 0; v < n; ++v) {
    if (best[v].reachable()) {
      ws.heap.push_raw({static_cast<std::uint8_t>(best[v].cls), best[v].hops,
                        best[v].delay_ms, v});
    }
  }
  ws.heap.heapify();
  ws.done.reset(n);
  while (!ws.heap.empty()) {
    const PolicyKey k = ws.heap.pop();
    ++c.heap_pops;
    if (ws.done.test(k.node)) continue;
    // Skip stale queue entries (a better route was settled meanwhile).
    const Route& cur = best[k.node];
    if (static_cast<std::uint8_t>(cur.cls) != k.cls || cur.hops != k.hops ||
        cur.delay_ms != k.delay) {
      continue;
    }
    ws.done.set(k.node);
    const AsGraph::Segment custs = graph.customers(k.node);
    for (std::uint32_t i = 0; i < custs.count; ++i) {
      const Route cand{RouteClass::kProvider, cur.hops + 1,
                       cur.delay_ms + custs.delay_ms[i],
                       cur.data_delay_ms + custs.data_delay_ms[i]};
      const AsId w = custs.neighbor[i];
      if (cand.better_than(best[w])) {
        best[w] = cand;
        ws.heap.push({static_cast<std::uint8_t>(cand.cls), cand.hops,
                      cand.delay_ms, w});
      }
    }
    c.edges_relaxed += custs.count;
  }
  ++c.sources_run;
}

// Shared driver shell: dynamic scheduling over rows, one reusable
// per-thread workspace, per-chunk telemetry flush (heap growth inside the
// chunk shows up as a capacity delta and counts as one scratch alloc).
template <typename Workspace, typename Kernel>
void run_batch(std::size_t rows, Workspace& (*workspace)(), Kernel&& kernel) {
  const auto start = std::chrono::steady_clock::now();
  parallel_for_dynamic(rows, /*grain=*/1,
                       [&](std::size_t begin, std::size_t end) {
                         Workspace& ws = workspace();
                         LocalCounts c;
                         const std::size_t heap_cap = ws.heap.capacity();
                         for (std::size_t r = begin; r < end; ++r) {
                           kernel(r, ws, c);
                         }
                         if (ws.heap.capacity() != heap_cap) {
                           ++c.scratch_allocs;
                         }
                         c.flush();
                       });
  RoutingMetrics::get().batch_ns.record(elapsed_ns(start));
}

}  // namespace

void shortest_paths_batch(const AsGraph& graph,
                          const std::vector<AsId>& sources, PathInfo* out) {
  const obs::Span span("sssp-batch");
  const std::size_t n = graph.size();
  run_batch<SsspWorkspace>(
      sources.size(), &sssp_workspace,
      [&](std::size_t r, SsspWorkspace& ws, LocalCounts& c) {
        sssp_one(graph, sources[r], out + r * n, ws, c);
      });
}

std::vector<PathInfo> shortest_paths_batch(
    const AsGraph& graph, const std::vector<AsId>& sources) {
  std::vector<PathInfo> out(sources.size() * graph.size());
  shortest_paths_batch(graph, sources, out.data());
  return out;
}

void policy_routes_batch(const AsGraph& graph,
                         const std::vector<AsId>& dests, Route* out) {
  const obs::Span span("policy-batch");
  const std::size_t n = graph.size();
  run_batch<PolicyWorkspace>(
      dests.size(), &policy_workspace,
      [&](std::size_t r, PolicyWorkspace& ws, LocalCounts& c) {
        c.scratch_allocs += ws.ensure(n);
        policy_one(graph, dests[r], out + r * n, ws, c);
      });
}

std::vector<Route> policy_routes_batch(const AsGraph& graph,
                                       const std::vector<AsId>& dests) {
  std::vector<Route> out(dests.size() * graph.size());
  policy_routes_batch(graph, dests, out.data());
  return out;
}

std::vector<AsId> all_nodes(const AsGraph& graph) {
  std::vector<AsId> ids(graph.size());
  std::iota(ids.begin(), ids.end(), AsId{0});
  return ids;
}

}  // namespace tiv::routing
