#include "routing/policy_routing.hpp"
#include "routing/shortest_path.hpp"

#include <gtest/gtest.h>

#include "reference/oracles.hpp"
#include "routing/graph_engine.hpp"
#include "topology/generator.hpp"

namespace tiv::routing {
namespace {

using topology::AsGraph;
using topology::AsId;
using topology::AsLink;
using topology::AsNode;
using topology::LinkKind;

AsGraph line_graph() {
  // 0 -(cust)-> 1 -(cust)-> 2, delays 10 and 20.
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kCustomerProvider, 10.0, 1.0},
      {1, 2, LinkKind::kCustomerProvider, 20.0, 1.0},
  };
  return AsGraph(nodes, links);
}

TEST(ShortestPath, LineGraphDistances) {
  const AsGraph g = line_graph();
  const auto d = reference::shortest_paths_from(g, 0);
  EXPECT_DOUBLE_EQ(d[0].delay_ms, 0.0);
  EXPECT_DOUBLE_EQ(d[1].delay_ms, 10.0);
  EXPECT_DOUBLE_EQ(d[2].delay_ms, 30.0);
  EXPECT_EQ(d[2].hops, 2u);
}

TEST(ShortestPath, PicksCheaperOfTwoRoutes) {
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kPeerPeer, 10.0, 1.0},
      {1, 2, LinkKind::kPeerPeer, 10.0, 1.0},
      {0, 2, LinkKind::kPeerPeer, 50.0, 1.0},
  };
  const AsGraph g(nodes, links);
  const auto d = reference::shortest_paths_from(g, 0);
  EXPECT_DOUBLE_EQ(d[2].delay_ms, 20.0);
}

TEST(ShortestPath, UsesExperiencedDelay) {
  // Congestion x5 on the direct link makes the two-hop path cheaper.
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kPeerPeer, 10.0, 1.0},
      {1, 2, LinkKind::kPeerPeer, 10.0, 1.0},
      {0, 2, LinkKind::kPeerPeer, 15.0, 5.0},  // experienced 75
  };
  const AsGraph g(nodes, links);
  const auto d = reference::shortest_paths_from(g, 0);
  EXPECT_DOUBLE_EQ(d[2].delay_ms, 20.0);
}

TEST(ShortestPath, UnreachableIsInfinite) {
  std::vector<AsNode> nodes(2);
  const AsGraph g(nodes, {});
  const auto d = reference::shortest_paths_from(g, 0);
  EXPECT_FALSE(d[1].reachable());
}

TEST(ShortestPathMatrix, MatchesSingleSource) {
  const AsGraph g = generate_topology([] {
    topology::TopologyParams p;
    p.num_ases = 60;
    p.seed = 4;
    return p;
  }());
  const ShortestPathMatrix m(g);
  const auto row0 = reference::shortest_paths_from(g, 0);
  for (AsId v = 0; v < g.size(); ++v) {
    EXPECT_DOUBLE_EQ(m.delay(0, v), row0[v].delay_ms);
  }
}

// --- Policy routing on hand-built graphs ---------------------------------

TEST(PolicyRouting, DestinationRouteIsSelf) {
  const AsGraph g = line_graph();
  const auto r = reference::policy_routes_to(g, 0);
  EXPECT_EQ(r[0].cls, RouteClass::kCustomer);
  EXPECT_DOUBLE_EQ(r[0].delay_ms, 0.0);
}

TEST(PolicyRouting, CustomerRoutesFlowUpProviderChain) {
  const AsGraph g = line_graph();
  // Destination 0 announces up: 1 and 2 learn customer routes.
  const auto r = reference::policy_routes_to(g, 0);
  EXPECT_EQ(r[1].cls, RouteClass::kCustomer);
  EXPECT_DOUBLE_EQ(r[1].delay_ms, 10.0);
  EXPECT_EQ(r[2].cls, RouteClass::kCustomer);
  EXPECT_DOUBLE_EQ(r[2].delay_ms, 30.0);
}

TEST(PolicyRouting, ProviderRoutesFlowDown) {
  const AsGraph g = line_graph();
  // Destination 2 (top provider): 1 and 0 reach it via provider routes.
  const auto r = reference::policy_routes_to(g, 2);
  EXPECT_EQ(r[1].cls, RouteClass::kProvider);
  EXPECT_EQ(r[0].cls, RouteClass::kProvider);
  EXPECT_DOUBLE_EQ(r[0].delay_ms, 30.0);
}

TEST(PolicyRouting, ValleyFreeBlocksPeerTransit) {
  // 0 and 2 are customers of nothing; 0-1 peer, 1-2 peer. A 0->2 path would
  // need two peer hops (0-1-2), which valley-free forbids.
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kPeerPeer, 10.0, 1.0},
      {1, 2, LinkKind::kPeerPeer, 10.0, 1.0},
  };
  const AsGraph g(nodes, links);
  const auto r = reference::policy_routes_to(g, 2);
  EXPECT_TRUE(r[1].reachable());
  EXPECT_FALSE(r[0].reachable());
}

TEST(PolicyRouting, PeerRouteCarriesOnlyCustomerRoutes) {
  // t1a -(peer)- t1b; c customer of t1a; d customer of t1b.
  // d's route to c: provider t1b, which learned c via peer t1a, which
  // learned c from its customer. Path d -> t1b -> t1a -> c is valley-free.
  std::vector<AsNode> nodes(4);
  constexpr AsId t1a = 0;
  constexpr AsId t1b = 1;
  constexpr AsId c = 2;
  constexpr AsId d = 3;
  std::vector<AsLink> links{
      {t1a, t1b, LinkKind::kPeerPeer, 5.0, 1.0},
      {c, t1a, LinkKind::kCustomerProvider, 3.0, 1.0},
      {d, t1b, LinkKind::kCustomerProvider, 4.0, 1.0},
  };
  const AsGraph g(nodes, links);
  const auto r = reference::policy_routes_to(g, c);
  ASSERT_TRUE(r[d].reachable());
  EXPECT_EQ(r[d].cls, RouteClass::kProvider);
  EXPECT_DOUBLE_EQ(r[d].delay_ms, 12.0);
  EXPECT_EQ(r[d].hops, 3u);
  // t1b itself reaches c via its peer.
  EXPECT_EQ(r[t1b].cls, RouteClass::kPeer);
}

TEST(PolicyRouting, PrefersCustomerOverShorterPeerRoute) {
  // v has a customer path to dest of delay 100 and a peer path of delay 10.
  // BGP picks the customer route despite the tenfold delay difference.
  std::vector<AsNode> nodes(4);
  constexpr AsId v = 0;
  constexpr AsId cust = 1;
  constexpr AsId dest = 2;
  constexpr AsId peer = 3;
  std::vector<AsLink> links{
      {cust, v, LinkKind::kCustomerProvider, 50.0, 1.0},
      {dest, cust, LinkKind::kCustomerProvider, 50.0, 1.0},
      {v, peer, LinkKind::kPeerPeer, 5.0, 1.0},
      {dest, peer, LinkKind::kCustomerProvider, 5.0, 1.0},
  };
  const AsGraph g(nodes, links);
  const auto r = reference::policy_routes_to(g, dest);
  ASSERT_TRUE(r[v].reachable());
  EXPECT_EQ(r[v].cls, RouteClass::kCustomer);
  EXPECT_DOUBLE_EQ(r[v].delay_ms, 100.0);
  // This preference is precisely a routing-created triangle inequality
  // violation: the direct (selected) path is 100 while a 10 ms path exists.
}

TEST(PolicyRouting, TracksExperiencedDelaySeparately) {
  std::vector<AsNode> nodes(2);
  std::vector<AsLink> links{{0, 1, LinkKind::kCustomerProvider, 10.0, 3.0}};
  const AsGraph g(nodes, links);
  const auto r = reference::policy_routes_to(g, 0);
  EXPECT_DOUBLE_EQ(r[1].delay_ms, 10.0);
  EXPECT_DOUBLE_EQ(r[1].data_delay_ms, 30.0);
}

// --- Policy routing on generated topologies ------------------------------

class PolicyOnGenerated : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  AsGraph graph_ = generate_topology([this] {
    topology::TopologyParams p;
    p.num_ases = 100;
    p.seed = GetParam();
    return p;
  }());
};

TEST_P(PolicyOnGenerated, AllPairsReachable) {
  const PolicyRoutingMatrix m(graph_);
  for (AsId s = 0; s < graph_.size(); ++s) {
    for (AsId d = 0; d < graph_.size(); ++d) {
      EXPECT_TRUE(m.route(s, d).reachable())
          << "no valley-free route " << s << " -> " << d;
    }
  }
}

TEST_P(PolicyOnGenerated, PolicyNeverBeatsShortestPath) {
  const PolicyRoutingMatrix pm(graph_);
  const ShortestPathMatrix sm(graph_);
  for (AsId s = 0; s < graph_.size(); ++s) {
    for (AsId d = 0; d < graph_.size(); ++d) {
      if (s == d) continue;
      EXPECT_GE(pm.route(s, d).data_delay_ms, sm.delay(s, d) - 1e-9);
    }
  }
}

TEST_P(PolicyOnGenerated, ExperiencedAtLeastPropagation) {
  const PolicyRoutingMatrix pm(graph_);
  for (AsId s = 0; s < graph_.size(); ++s) {
    for (AsId d = 0; d < graph_.size(); ++d) {
      const auto& r = pm.route(s, d);
      EXPECT_GE(r.data_delay_ms, r.delay_ms - 1e-9);
    }
  }
}

TEST_P(PolicyOnGenerated, SomePathsAreInflated) {
  // The whole point of policy routing: a meaningful share of pairs use a
  // path noticeably longer than the physical shortest path.
  const PolicyRoutingMatrix pm(graph_);
  const ShortestPathMatrix sm(graph_);
  std::size_t inflated = 0;
  std::size_t total = 0;
  for (AsId s = 0; s < graph_.size(); ++s) {
    for (AsId d = s + 1; d < graph_.size(); ++d) {
      ++total;
      inflated += pm.route(s, d).data_delay_ms > 1.3 * sm.delay(s, d);
    }
  }
  EXPECT_GT(static_cast<double>(inflated) / static_cast<double>(total), 0.02);
}

TEST_P(PolicyOnGenerated, RouteClassMixIsSane) {
  const PolicyRoutingMatrix pm(graph_);
  const double cust = pm.class_fraction(RouteClass::kCustomer);
  const double peer = pm.class_fraction(RouteClass::kPeer);
  const double prov = pm.class_fraction(RouteClass::kProvider);
  EXPECT_NEAR(cust + peer + prov, 1.0, 1e-9);
  // On a stub-heavy hierarchy most selected routes climb providers.
  EXPECT_GT(prov, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyOnGenerated,
                         ::testing::Values(1ULL, 17ULL, 123ULL));

// --- Batched engine vs scalar reference ----------------------------------

/// Every batched row must be exactly equal — operator== on each field, no
/// tolerance — to the scalar reference. Both scan CSR segments in the same
/// order and pop lexicographically minimal keys, so even delay ties must
/// resolve identically.
void expect_exact_parity(const AsGraph& g) {
  const auto nodes = all_nodes(g);
  const std::size_t n = g.size();
  const auto batched_policy = policy_routes_batch(g, nodes);
  const auto batched_sssp = shortest_paths_batch(g, nodes);
  ASSERT_EQ(batched_policy.size(), n * n);
  ASSERT_EQ(batched_sssp.size(), n * n);
  for (AsId v = 0; v < n; ++v) {
    const auto scalar_policy = reference::policy_routes_to(g, v);
    const auto scalar_sssp = reference::shortest_paths_from(g, v);
    for (AsId u = 0; u < n; ++u) {
      const Route& b = batched_policy[static_cast<std::size_t>(v) * n + u];
      EXPECT_EQ(b.cls, scalar_policy[u].cls) << v << " -> " << u;
      EXPECT_EQ(b.hops, scalar_policy[u].hops) << v << " -> " << u;
      EXPECT_EQ(b.delay_ms, scalar_policy[u].delay_ms) << v << " -> " << u;
      EXPECT_EQ(b.data_delay_ms, scalar_policy[u].data_delay_ms)
          << v << " -> " << u;
      const PathInfo& p = batched_sssp[static_cast<std::size_t>(v) * n + u];
      EXPECT_EQ(p.delay_ms, scalar_sssp[u].delay_ms) << v << " -> " << u;
      EXPECT_EQ(p.hops, scalar_sssp[u].hops) << v << " -> " << u;
    }
  }
}

TEST(GraphEngine, SingleNodeGraph) {
  expect_exact_parity(AsGraph(std::vector<AsNode>(1), {}));
}

TEST(GraphEngine, TinyGraphs) {
  expect_exact_parity(line_graph());
  // Peer triangle with one congested edge (n = 3 < 8).
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kPeerPeer, 10.0, 1.0},
      {1, 2, LinkKind::kPeerPeer, 10.0, 1.0},
      {0, 2, LinkKind::kPeerPeer, 15.0, 5.0},
  };
  expect_exact_parity(AsGraph(nodes, links));
}

TEST(GraphEngine, DisconnectedStubs) {
  // A small hierarchy plus two fully isolated stubs: unreachable cells must
  // agree exactly (kNone routes, infinite delays) on both sides.
  std::vector<AsNode> nodes(7);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kCustomerProvider, 10.0, 1.0},
      {1, 2, LinkKind::kCustomerProvider, 20.0, 1.0},
      {3, 2, LinkKind::kCustomerProvider, 5.0, 2.0},
      {0, 3, LinkKind::kPeerPeer, 8.0, 1.0},
      // ASes 5 and 6 peer with each other but reach nobody else.
      {5, 6, LinkKind::kPeerPeer, 2.0, 1.0},
  };
  expect_exact_parity(AsGraph(nodes, links));
}

TEST(GraphEngine, GeneratedTopologiesVariedTierMixes) {
  struct Mix {
    std::uint64_t seed;
    double tier2_fraction;
    std::uint32_t tier1_per_cluster;
    double peering;
  };
  for (const Mix& mix : {Mix{5, 0.22, 2, 0.12}, Mix{29, 0.45, 1, 0.02},
                         Mix{91, 0.10, 3, 0.40}}) {
    topology::TopologyParams p;
    p.num_ases = 70;
    p.seed = mix.seed;
    p.tier2_fraction = mix.tier2_fraction;
    p.tier1_per_cluster = mix.tier1_per_cluster;
    p.tier2_peering_same_cluster = mix.peering;
    expect_exact_parity(generate_topology(p));
  }
}

TEST(GraphEngine, BenchQuickTopologiesMatchTheReference) {
  // bench_graph_engine --quick's parity leg: its two generated topologies
  // (96 and 160 ASes, seed 7 ^ n), every batched cell equal to the scalar
  // reference.
  for (const std::uint32_t n : {96u, 160u}) {
    topology::TopologyParams p;
    p.num_ases = n;
    p.seed = 7 ^ n;
    expect_exact_parity(generate_topology(p));
  }
}

TEST(GraphEngine, EmptyBatchIsEmpty) {
  const AsGraph g = line_graph();
  EXPECT_TRUE(policy_routes_batch(g, {}).empty());
  EXPECT_TRUE(shortest_paths_batch(g, {}).empty());
}

TEST(GraphEngine, SubsetRowsMatchAllPairs) {
  const AsGraph g = generate_topology([] {
    topology::TopologyParams p;
    p.num_ases = 60;
    p.seed = 11;
    return p;
  }());
  const std::vector<AsId> subset{3, 0, 41, 17};
  const ShortestPathMatrix sm_all(g);
  const ShortestPathMatrix sm_sub(g, subset);
  const PolicyRoutingMatrix pm_all(g);
  const PolicyRoutingMatrix pm_sub(g, subset);
  EXPECT_EQ(sm_all.num_sources(), g.size());
  EXPECT_EQ(sm_sub.num_sources(), subset.size());
  EXPECT_EQ(pm_sub.num_dests(), subset.size());
  for (const AsId s : subset) {
    for (AsId v = 0; v < g.size(); ++v) {
      EXPECT_EQ(sm_sub.delay(s, v), sm_all.delay(s, v));
      EXPECT_EQ(sm_sub.info(s, v).hops, sm_all.info(s, v).hops);
      EXPECT_EQ(pm_sub.route(v, s).delay_ms, pm_all.route(v, s).delay_ms);
      EXPECT_EQ(pm_sub.route(v, s).cls, pm_all.route(v, s).cls);
    }
  }
}

TEST(GraphEngine, ClassCountsMatchManualScan) {
  const AsGraph g = generate_topology([] {
    topology::TopologyParams p;
    p.num_ases = 80;
    p.seed = 23;
    return p;
  }());
  const PolicyRoutingMatrix pm(g);
  RouteClassCounts manual;
  for (AsId d = 0; d < g.size(); ++d) {
    for (AsId s = 0; s < g.size(); ++s) {
      if (s == d) continue;
      const Route& r = pm.route(s, d);
      if (r.reachable()) {
        ++manual.counts[static_cast<std::size_t>(r.cls)];
      } else {
        ++manual.unreachable;
      }
    }
  }
  const RouteClassCounts& counts = pm.class_counts();
  EXPECT_EQ(counts.counts, manual.counts);
  EXPECT_EQ(counts.unreachable, manual.unreachable);
  EXPECT_EQ(counts.reachable(), manual.reachable());
  // class_fraction reads the same counts.
  for (const RouteClass cls : {RouteClass::kCustomer, RouteClass::kPeer,
                               RouteClass::kProvider}) {
    EXPECT_DOUBLE_EQ(pm.class_fraction(cls),
                     static_cast<double>(manual.of(cls)) /
                         static_cast<double>(manual.reachable()));
  }
}

}  // namespace
}  // namespace tiv::routing
