#include "topology/generator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "topology/as_graph.hpp"

namespace tiv::topology {
namespace {

TopologyParams small_params(std::uint64_t seed = 1) {
  TopologyParams p;
  p.num_ases = 120;
  p.seed = seed;
  return p;
}

TEST(AsGraph, AdjacencyRolesAreConsistent) {
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kCustomerProvider, 5.0, 1.0},
      {1, 2, LinkKind::kPeerPeer, 7.0, 2.0},
  };
  const AsGraph g(nodes, links);
  ASSERT_EQ(g.degree(0), 1u);
  ASSERT_EQ(g.providers(0).count, 1u);
  EXPECT_EQ(g.providers(0).neighbor[0], 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.provider_count(0), 1u);
  EXPECT_EQ(g.customer_count(1), 1u);
  EXPECT_EQ(g.peer_count(1), 1u);
  EXPECT_EQ(g.peer_count(2), 1u);
  // Experienced delay = propagation * congestion.
  EXPECT_DOUBLE_EQ(g.peers(1).data_delay_ms[0], 14.0);
}

// --- CSR segment invariants ----------------------------------------------

/// The role segments must tile [offset(v), offset(v+1)) exactly and
/// reproduce every link twice (once per endpoint) with the role flipped
/// across the link.
void expect_csr_invariants(const AsGraph& g) {
  std::size_t total_entries = 0;
  // Per-link role tallies rebuilt from the raw link list.
  std::vector<std::size_t> providers(g.size(), 0);
  std::vector<std::size_t> customers(g.size(), 0);
  std::vector<std::size_t> peers(g.size(), 0);
  for (const auto& l : g.links()) {
    if (l.kind == LinkKind::kCustomerProvider) {
      ++providers[l.a];  // a sees b as provider
      ++customers[l.b];
    } else {
      ++peers[l.a];
      ++peers[l.b];
    }
  }
  for (AsId v = 0; v < g.size(); ++v) {
    const auto prov = g.providers(v);
    const auto cust = g.customers(v);
    const auto peer = g.peers(v);
    const auto all = g.neighbors(v);
    // Segment widths are the O(1) role counts and sum to the degree.
    EXPECT_EQ(prov.count, g.provider_count(v));
    EXPECT_EQ(cust.count, g.customer_count(v));
    EXPECT_EQ(peer.count, g.peer_count(v));
    EXPECT_EQ(prov.count + cust.count + peer.count, g.degree(v));
    EXPECT_EQ(all.count, g.degree(v));
    EXPECT_EQ(providers[v], g.provider_count(v)) << "node " << v;
    EXPECT_EQ(customers[v], g.customer_count(v)) << "node " << v;
    EXPECT_EQ(peers[v], g.peer_count(v)) << "node " << v;
    // Segments are contiguous: providers, then customers, then peers, and
    // neighbors(v) spans all three with shared lane pointers.
    EXPECT_EQ(cust.neighbor, prov.neighbor + prov.count);
    EXPECT_EQ(peer.neighbor, cust.neighbor + cust.count);
    EXPECT_EQ(all.neighbor, prov.neighbor);
    total_entries += g.degree(v);
  }
  // Every link contributes exactly two CSR entries.
  EXPECT_EQ(total_entries, 2 * g.links().size());
}

TEST(AsGraph, CsrSegmentsOnHandBuiltGraph) {
  std::vector<AsNode> nodes(5);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kCustomerProvider, 5.0, 1.0},
      {2, 1, LinkKind::kCustomerProvider, 3.0, 2.0},
      {1, 3, LinkKind::kPeerPeer, 7.0, 1.0},
      {0, 3, LinkKind::kCustomerProvider, 4.0, 1.5},
      {2, 3, LinkKind::kPeerPeer, 9.0, 1.0},
      // node 4 isolated: all segments empty.
  };
  const AsGraph g(nodes, links);
  expect_csr_invariants(g);
  // Within-segment order is link insertion order: node 1's customers are
  // 0 then 2; node 3's peers are 1 then 2.
  ASSERT_EQ(g.customers(1).count, 2u);
  EXPECT_EQ(g.customers(1).neighbor[0], 0u);
  EXPECT_EQ(g.customers(1).neighbor[1], 2u);
  ASSERT_EQ(g.peers(3).count, 2u);
  EXPECT_EQ(g.peers(3).neighbor[0], 1u);
  EXPECT_EQ(g.peers(3).neighbor[1], 2u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_EQ(g.neighbors(4).count, 0u);
}

TEST(AsGraph, CsrSegmentsOnGeneratedGraphs) {
  for (std::uint64_t seed : {2ULL, 13ULL, 77ULL}) {
    expect_csr_invariants(generate_topology(small_params(seed)));
  }
}

TEST(AsGraph, ValidateChecksCsrLayout) {
  // validate() must accept the generator output (its CSR rebuild-and-compare
  // sweep passes) at several scales.
  for (std::uint32_t n : {20u, 120u}) {
    TopologyParams p = small_params(n);
    p.num_ases = n;
    EXPECT_NO_THROW(generate_topology(p).validate());
  }
}

TEST(AsGraph, ValidateRejectsSelfLink) {
  std::vector<AsNode> nodes(2);
  std::vector<AsLink> links{{0, 0, LinkKind::kPeerPeer, 1.0, 1.0}};
  const AsGraph g(nodes, links);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(AsGraph, ValidateRejectsNonPositiveDelay) {
  std::vector<AsNode> nodes(2);
  std::vector<AsLink> links{{0, 1, LinkKind::kPeerPeer, 0.0, 1.0}};
  const AsGraph g(nodes, links);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(AsGraph, ValidateRejectsCongestionBelowOne) {
  std::vector<AsNode> nodes(2);
  std::vector<AsLink> links{{0, 1, LinkKind::kPeerPeer, 1.0, 0.5}};
  const AsGraph g(nodes, links);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(AsGraph, ValidateRejectsProviderCycle) {
  std::vector<AsNode> nodes(3);
  std::vector<AsLink> links{
      {0, 1, LinkKind::kCustomerProvider, 1.0, 1.0},
      {1, 2, LinkKind::kCustomerProvider, 1.0, 1.0},
      {2, 0, LinkKind::kCustomerProvider, 1.0, 1.0},
  };
  const AsGraph g(nodes, links);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(AsGraph, ValidateAcceptsDiamondHierarchy) {
  std::vector<AsNode> nodes(4);
  // 3 and 2 both customers of 1 and 0; no cycle.
  std::vector<AsLink> links{
      {2, 0, LinkKind::kCustomerProvider, 1.0, 1.0},
      {2, 1, LinkKind::kCustomerProvider, 1.0, 1.0},
      {3, 0, LinkKind::kCustomerProvider, 1.0, 1.0},
      {3, 1, LinkKind::kCustomerProvider, 1.0, 1.0},
      {0, 1, LinkKind::kPeerPeer, 1.0, 1.0},
  };
  const AsGraph g(nodes, links);
  EXPECT_NO_THROW(g.validate());
}

TEST(AsGraph, RejectsOutOfRangeEndpoint) {
  std::vector<AsNode> nodes(2);
  std::vector<AsLink> links{{0, 5, LinkKind::kPeerPeer, 1.0, 1.0}};
  EXPECT_THROW(AsGraph(nodes, links), std::out_of_range);
}

TEST(Generator, ProducesRequestedSize) {
  const AsGraph g = generate_topology(small_params());
  EXPECT_EQ(g.size(), 120u);
}

TEST(Generator, DeterministicForSeed) {
  const AsGraph a = generate_topology(small_params(7));
  const AsGraph b = generate_topology(small_params(7));
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].a, b.links()[i].a);
    EXPECT_EQ(a.links()[i].b, b.links()[i].b);
    EXPECT_DOUBLE_EQ(a.links()[i].delay_ms, b.links()[i].delay_ms);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const AsGraph a = generate_topology(small_params(1));
  const AsGraph b = generate_topology(small_params(2));
  bool any_diff = a.links().size() != b.links().size();
  for (std::size_t i = 0; !any_diff && i < a.links().size(); ++i) {
    any_diff = a.links()[i].delay_ms != b.links()[i].delay_ms;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, Tier1sFormFullPeerMesh) {
  const AsGraph g = generate_topology(small_params());
  std::vector<AsId> tier1s;
  for (AsId v = 0; v < g.size(); ++v) {
    if (g.node(v).tier == Tier::kTier1) tier1s.push_back(v);
  }
  ASSERT_GE(tier1s.size(), 2u);
  for (AsId a : tier1s) {
    for (AsId b : tier1s) {
      if (a == b) continue;
      const AsGraph::Segment peers = g.peers(a);
      const bool peered =
          std::find(peers.neighbor, peers.neighbor + peers.count, b) !=
          peers.neighbor + peers.count;
      EXPECT_TRUE(peered) << "tier1 " << a << " and " << b << " not peered";
    }
  }
}

TEST(Generator, EveryNonTier1HasAProvider) {
  const AsGraph g = generate_topology(small_params());
  for (AsId v = 0; v < g.size(); ++v) {
    if (g.node(v).tier == Tier::kTier1) continue;
    EXPECT_GE(g.provider_count(v), 1u) << "AS " << v << " has no transit";
  }
}

TEST(Generator, PassesStructuralValidation) {
  for (std::uint64_t seed : {1ULL, 5ULL, 99ULL}) {
    EXPECT_NO_THROW(generate_topology(small_params(seed)).validate());
  }
}

TEST(Generator, ClustersArePopulatedAndNoiseExists) {
  TopologyParams p = small_params();
  p.noise_fraction = 0.10;
  const AsGraph g = generate_topology(p);
  std::map<int, int> cluster_counts;
  for (const auto& n : g.nodes()) ++cluster_counts[n.cluster];
  EXPECT_GE(cluster_counts.size(), 4u);  // 3 majors + noise
  EXPECT_GT(cluster_counts[kNoiseCluster], 0);
  for (int c = 0; c < 3; ++c) EXPECT_GT(cluster_counts[c], 10);
}

TEST(Generator, LinkDelaysScaleWithDistance) {
  const AsGraph g = generate_topology(small_params());
  // Cross-cluster links (tier-1 mesh) must be much longer than the median
  // intra-cluster link.
  std::vector<double> intra;
  std::vector<double> cross;
  for (const auto& l : g.links()) {
    const auto& na = g.node(l.a);
    const auto& nb = g.node(l.b);
    if (na.cluster < 0 || nb.cluster < 0) continue;
    (na.cluster == nb.cluster ? intra : cross).push_back(l.delay_ms);
  }
  ASSERT_FALSE(intra.empty());
  ASSERT_FALSE(cross.empty());
  double intra_sum = 0.0;
  for (double d : intra) intra_sum += d;
  double cross_sum = 0.0;
  for (double d : cross) cross_sum += d;
  EXPECT_GT(cross_sum / cross.size(), 3.0 * intra_sum / intra.size());
}

TEST(Generator, CongestionRespectsCapAndFloor) {
  const AsGraph g = generate_topology(small_params());
  bool any_congested = false;
  for (const auto& l : g.links()) {
    EXPECT_GE(l.congestion, 1.0);
    EXPECT_LE(l.congestion, 14.0 + 1e-9);
    any_congested |= l.congestion > 1.5;
  }
  EXPECT_TRUE(any_congested);
}

TEST(Generator, ZeroCongestionProbDisablesCongestion) {
  TopologyParams p = small_params();
  p.congested_link_prob = 0.0;
  const AsGraph g = generate_topology(p);
  for (const auto& l : g.links()) EXPECT_DOUBLE_EQ(l.congestion, 1.0);
}

TEST(Generator, RemoteTransitCreatesCrossClusterProviders) {
  TopologyParams p = small_params(3);
  p.remote_transit_prob = 1.0;  // every tier-2 buys remote transit
  const AsGraph g = generate_topology(p);
  std::size_t remote = 0;
  std::size_t local = 0;
  for (AsId v = 0; v < g.size(); ++v) {
    if (g.node(v).tier != Tier::kTier2) continue;
    const AsGraph::Segment providers = g.providers(v);
    for (std::uint32_t i = 0; i < providers.count; ++i) {
      const AsId p = providers.neighbor[i];
      (g.node(p).cluster != g.node(v).cluster ? remote : local)++;
    }
  }
  EXPECT_GT(remote, 0u);
  EXPECT_EQ(local, 0u);
}

TEST(Generator, RejectsTooFewAses) {
  TopologyParams p;
  p.num_ases = 3;
  EXPECT_THROW(generate_topology(p), std::invalid_argument);
}

TEST(Generator, RejectsInvertedProviderRange) {
  TopologyParams p = small_params();
  p.stub_providers_min = 3;
  p.stub_providers_max = 1;
  EXPECT_THROW(generate_topology(p), std::invalid_argument);
}

class GeneratorScaleSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GeneratorScaleSweep, ValidAtEveryScale) {
  TopologyParams p;
  p.num_ases = GetParam();
  p.seed = GetParam();
  const AsGraph g = generate_topology(p);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.size(), GetParam());
  // Hierarchy depth sanity: there is at least one stub and one tier-2.
  std::set<Tier> tiers;
  for (const auto& n : g.nodes()) tiers.insert(n.tier);
  EXPECT_TRUE(tiers.count(Tier::kTier1));
  EXPECT_TRUE(tiers.count(Tier::kStub));
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleSweep,
                         ::testing::Values(20u, 60u, 150u, 400u));

}  // namespace
}  // namespace tiv::topology
