// MeridianOverlay ring construction, recursive queries, and the
// misplacement analysis.
#include <cmath>
#include <numeric>
#include <stdexcept>

#include <gtest/gtest.h>

#include "delayspace/datasets.hpp"
#include "delayspace/generate.hpp"
#include "matrix_test_utils.hpp"
#include "meridian/meridian.hpp"
#include "meridian/misplacement.hpp"
#include "reference/oracles.hpp"
#include "util/rng.hpp"

namespace tiv::meridian {
namespace {

using delayspace::DelayMatrix;

/// Points on a line -> a perfectly metric delay space.
DelayMatrix line_matrix(const std::vector<float>& pos) {
  DelayMatrix m(static_cast<HostId>(pos.size()));
  for (HostId i = 0; i < pos.size(); ++i) {
    for (HostId j = i + 1; j < pos.size(); ++j) {
      m.set(i, j, std::abs(pos[i] - pos[j]));
    }
  }
  return m;
}

MeridianParams full_ring_params() {
  MeridianParams p;
  p.ring_capacity = 10000;  // effectively unbounded
  p.num_rings = 16;
  p.use_termination = false;
  return p;
}

TEST(Meridian, RejectsBadParameters) {
  const DelayMatrix m = line_matrix({0, 1, 2, 3});
  std::vector<HostId> nodes{0, 1, 2};
  MeridianParams p;
  p.beta = 1.5;
  EXPECT_THROW(MeridianOverlay(m, nodes, p), std::invalid_argument);
  p = MeridianParams{};
  p.s = 0.5;
  EXPECT_THROW(MeridianOverlay(m, nodes, p), std::invalid_argument);
  p = MeridianParams{};
  p.adjust_rings = true;  // without predictor
  EXPECT_THROW(MeridianOverlay(m, nodes, p), std::invalid_argument);
  EXPECT_THROW(MeridianOverlay(m, {0}, MeridianParams{}),
               std::invalid_argument);
}

TEST(Meridian, RingCapacityRespected) {
  DelayMatrix m(40);
  // Everyone 10 ms from everyone: all members target the same ring.
  for (HostId i = 0; i < 40; ++i) {
    for (HostId j = i + 1; j < 40; ++j) m.set(i, j, 10.0f);
  }
  std::vector<HostId> nodes(40);
  std::iota(nodes.begin(), nodes.end(), 0);
  MeridianParams p;
  p.ring_capacity = 5;
  const MeridianOverlay overlay(m, nodes, p);
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    EXPECT_LE(overlay.rings_of(v).size(), 5u);
  }
}

TEST(Meridian, RingIndexGrowsWithDelay) {
  const DelayMatrix m = line_matrix({0, 1, 3, 9, 27, 81, 243});
  std::vector<HostId> nodes{0, 1, 2, 3, 4, 5, 6};
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  // Node 0's entries must be sorted by delay with non-decreasing ring index.
  const auto& rings = overlay.rings_of(0);
  ASSERT_EQ(rings.size(), 6u);
  for (std::size_t e = 1; e < rings.size(); ++e) {
    EXPECT_GE(rings[e].placement_delay, rings[e - 1].placement_delay);
    EXPECT_GE(rings[e].ring, rings[e - 1].ring);
  }
  EXPECT_GE(rings.back().ring, rings.front().ring + 3);
}

TEST(Meridian, EdgeFilterExcludesEdges) {
  const DelayMatrix m = line_matrix({0, 5, 10, 15, 20});
  std::vector<HostId> nodes{0, 1, 2, 3, 4};
  MeridianParams p = full_ring_params();
  p.edge_filter = [](HostId a, HostId b) {
    return (a == 0 && b == 1) || (a == 1 && b == 0);
  };
  const MeridianOverlay overlay(m, nodes, p);
  for (const auto& e : overlay.rings_of(0)) EXPECT_NE(e.member, 1u);
  for (const auto& e : overlay.rings_of(1)) EXPECT_NE(e.member, 0u);
  // Other nodes unaffected.
  EXPECT_EQ(overlay.rings_of(2).size(), 4u);
}

TEST(Meridian, OptimalNodeComputesMinimum) {
  const DelayMatrix m = line_matrix({0, 5, 10, 50, 100});
  std::vector<HostId> nodes{0, 1, 4};
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  const auto [best, d] = overlay.optimal_node(3);
  EXPECT_EQ(best, 1u);
  EXPECT_DOUBLE_EQ(d, 45.0);
}

TEST(Meridian, FindsNearestOnMetricSpaceWithIdealSettings) {
  // 60 points on a line, all overlay members, full rings, no termination:
  // the query must find the true nearest node from any start.
  std::vector<float> pos;
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    pos.push_back(static_cast<float>(rng.uniform(0.0, 400.0)));
  }
  const DelayMatrix m = line_matrix(pos);
  std::vector<HostId> nodes(48);  // first 48 are overlay, rest targets
  std::iota(nodes.begin(), nodes.end(), 0);
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  std::size_t exact = 0;
  std::size_t total = 0;
  for (HostId target = 48; target < 60; ++target) {
    for (HostId start : {0u, 10u, 47u}) {
      const auto [opt, opt_d] = overlay.optimal_node(target);
      const QueryResult qr = overlay.find_closest(target, start);
      ++total;
      exact += std::abs(qr.chosen_delay - opt_d) < 1e-6;
    }
  }
  // Idealized Meridian on metric data: near-perfect (paper Fig. 14's
  // Euclidean curve). Allow the rare stall the paper itself observes.
  EXPECT_GE(static_cast<double>(exact) / static_cast<double>(total), 0.9);
}

TEST(Meridian, TerminationReducesProbes) {
  delayspace::DelaySpaceParams params;
  params.topology.num_ases = 60;
  params.topology.seed = 21;
  params.hosts.num_hosts = 160;
  params.hosts.seed = 22;
  const auto ds = delayspace::generate_delay_space(params);
  std::vector<HostId> nodes(80);
  std::iota(nodes.begin(), nodes.end(), 0);

  MeridianParams with_term;
  with_term.use_termination = true;
  MeridianParams no_term = with_term;
  no_term.use_termination = false;

  const MeridianOverlay a(ds.measured, nodes, with_term);
  const MeridianOverlay b(ds.measured, nodes, no_term);
  std::uint64_t probes_term = 0;
  std::uint64_t probes_noterm = 0;
  for (HostId target = 80; target < 160; ++target) {
    probes_term += a.find_closest(target, nodes[target % 80]).probes;
    probes_noterm += b.find_closest(target, nodes[target % 80]).probes;
  }
  EXPECT_LE(probes_term, probes_noterm);
}

TEST(Meridian, QueryVisitsCountedInHops) {
  const DelayMatrix m = line_matrix({0, 100, 200, 300, 301});
  std::vector<HostId> nodes{0, 1, 2, 3};
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  const QueryResult qr = overlay.find_closest(4, 0);  // target at 301
  EXPECT_EQ(qr.chosen, 3u);
  EXPECT_GE(qr.hops, 1u);
  EXPECT_GT(qr.probes, 0u);
}

TEST(Meridian, ThrowsWhenStartNotInOverlay) {
  const DelayMatrix m = line_matrix({0, 1, 2, 3});
  std::vector<HostId> nodes{0, 1};
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  EXPECT_THROW(overlay.find_closest(3, 2), std::invalid_argument);
}

TEST(Meridian, RingAdjustmentAddsDualPlacement) {
  // Edge 0-1 is severely violated (measured 100, "predicted" 10): with
  // adjustment on, node 1 appears in node 0's rings both at 100 and at 10.
  DelayMatrix m(4);
  m.set(0, 1, 100.0f);
  m.set(0, 2, 10.0f);
  m.set(0, 3, 12.0f);
  m.set(1, 2, 10.0f);
  m.set(1, 3, 12.0f);
  m.set(2, 3, 4.0f);
  std::vector<HostId> nodes{0, 1, 2, 3};
  MeridianParams p = full_ring_params();
  p.adjust_rings = true;
  p.predictor = [](HostId a, HostId b) {
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) return 10.0;
    return 50.0;  // ratio within [ts, tl] for 10-12 ms edges? 50/10=5 > tl!
  };
  // Use a predictor consistent with measured for non-alert edges.
  p.predictor = [&m](HostId a, HostId b) {
    if ((a == 0 && b == 1) || (a == 1 && b == 0)) return 10.0;
    return static_cast<double>(m.at(a, b));
  };
  const MeridianOverlay overlay(m, nodes, p);
  int placements_of_1 = 0;
  for (const auto& e : overlay.rings_of(0)) placements_of_1 += e.member == 1;
  EXPECT_EQ(placements_of_1, 2);
  // Non-alerted members stay single-placed.
  int placements_of_2 = 0;
  for (const auto& e : overlay.rings_of(0)) placements_of_2 += e.member == 2;
  EXPECT_EQ(placements_of_2, 1);
}

TEST(Meridian, RingOccupancySums) {
  const DelayMatrix m = line_matrix({0, 2, 4, 8, 16, 32});
  std::vector<HostId> nodes{0, 1, 2, 3, 4, 5};
  const MeridianOverlay overlay(m, nodes, full_ring_params());
  const auto occ = overlay.ring_occupancy();
  std::size_t total = 0;
  for (std::size_t r = 1; r < occ.size(); ++r) total += occ[r];
  EXPECT_EQ(total, 30u);  // 6 nodes x 5 members
}

// --- Misplacement analysis ------------------------------------------------

TEST(Misplacement, PairScanEqualsTheScalarOracle) {
  // pair_misplacements' branch-free scan over view rows must equal the
  // branchy scan field for field, with the ball inside (beta < 1) and
  // around (beta >= 1) Ni, on dense, 30%-missing and DS^2 matrices.
  const HostId n = 80;
  const std::vector<std::pair<std::string, DelayMatrix>> matrices = {
      {"dense", tiv::test::random_matrix(n, 0.0, 91)},
      {"missing30", tiv::test::random_matrix(n, 0.3, 92)},
      {"ds2",
       delayspace::make_dataset(delayspace::DatasetId::kDs2, n).measured}};
  std::vector<std::pair<HostId, HostId>> all;
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = 0; j < n; ++j) {
      if (i != j) all.emplace_back(i, j);
    }
  }
  for (const auto& [name, m] : matrices) {
    ASSERT_EQ(m.size(), n) << name;
    for (const double beta : {0.3, 0.5, 1.0, 1.5}) {
      const auto got = pair_misplacements(m, all, beta);
      ASSERT_EQ(got.size(), all.size());
      std::size_t valid = 0;
      for (std::size_t p = 0; p < got.size(); ++p) {
        const auto [i, j] = all[p];
        const PairMisplacement want =
            reference::misplacement_pair_scalar(m, i, j, beta);
        ASSERT_EQ(got[p].valid, want.valid)
            << name << " beta " << beta << " pair " << i << "," << j;
        ASSERT_EQ(got[p].d_ij, want.d_ij) << name << " " << i << "," << j;
        ASSERT_EQ(got[p].misplaced_fraction, want.misplaced_fraction)
            << name << " beta " << beta << " pair " << i << "," << j;
        valid += got[p].valid;
      }
      EXPECT_GT(valid, 0u) << name << " beta " << beta;
    }
  }
}

TEST(Misplacement, ZeroOnMetricSpace) {
  // Triangle inequality guarantees every node in the beta-ball of Nj lies
  // within [(1-beta)d, (1+beta)d] of Ni.
  std::vector<float> pos;
  Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    pos.push_back(static_cast<float>(rng.uniform(0.0, 300.0)));
  }
  const DelayMatrix m = line_matrix(pos);
  MisplacementParams p;
  EXPECT_DOUBLE_EQ(misplacement_fraction(m, p), 0.0);
}

TEST(Misplacement, DetectsTivInducedErrors) {
  // The 3-node TIV example embedded in a larger set: misplacement > 0.
  DelayMatrix m(4);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 2, 100.0f);
  m.set(0, 3, 50.0f);
  m.set(1, 3, 50.0f);
  m.set(2, 3, 50.0f);
  EXPECT_GT(misplacement_fraction(m, {}), 0.0);
}

TEST(Misplacement, LargerBetaToleratesMore) {
  delayspace::DelaySpaceParams params;
  params.topology.num_ases = 60;
  params.topology.seed = 31;
  params.hosts.num_hosts = 120;
  params.hosts.seed = 32;
  const auto ds = delayspace::generate_delay_space(params);
  MisplacementParams small;
  small.beta = 0.1;
  MisplacementParams large;
  large.beta = 0.9;
  EXPECT_GT(misplacement_fraction(ds.measured, small),
            misplacement_fraction(ds.measured, large));
}

TEST(Misplacement, SeriesBinsAreFractions) {
  delayspace::DelaySpaceParams params;
  params.topology.num_ases = 60;
  params.topology.seed = 33;
  params.hosts.num_hosts = 100;
  params.hosts.seed = 34;
  const auto ds = delayspace::generate_delay_space(params);
  MisplacementParams p;
  p.sample_pairs = 2000;
  const auto bins = misplacement_series(ds.measured, p);
  EXPECT_FALSE(bins.empty());
  for (const auto& b : bins) {
    EXPECT_GE(b.median, 0.0);
    EXPECT_LE(b.median, 1.0);
  }
}

}  // namespace
}  // namespace tiv::meridian
