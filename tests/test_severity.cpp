// The TIV severity metric: hand-computed cases, metric-space zero property,
// symmetry, bulk-vs-single consistency (against the library and the scalar
// oracle of tiv::reference), and scale invariance.
#include <cmath>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "delayspace/generate.hpp"
#include "reference/oracles.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;

/// 4 nodes; the only violation is edge 0-2 (d=100) witnessed by node 1
/// (5 + 5 = 10 < 100). Node 3 is far from everything (no violations).
DelayMatrix hand_matrix() {
  DelayMatrix m(4);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 2, 100.0f);
  m.set(0, 3, 200.0f);
  m.set(1, 3, 200.0f);
  m.set(2, 3, 200.0f);
  return m;
}

TEST(Severity, HandComputedSingleViolation) {
  const DelayMatrix m = hand_matrix();
  const TivAnalyzer a(m);
  // sev(0,2) = (100 / 10) / 4 = 2.5. (Witness 3: 200+200 > 100, no
  // violation.)
  EXPECT_NEAR(a.edge_severity(0, 2), 2.5, 1e-9);
  // Short edges cause no violations.
  EXPECT_DOUBLE_EQ(a.edge_severity(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.edge_severity(1, 2), 0.0);
  // 0-3 is violated via witness 1? 5 + 200 = 205 > 200: no. Witness 2:
  // 100 + 200 = 300 > 200: no.
  EXPECT_DOUBLE_EQ(a.edge_severity(0, 3), 0.0);
}

TEST(Severity, EdgeStatsDetail) {
  const DelayMatrix m = hand_matrix();
  const TivAnalyzer a(m);
  const EdgeTivStats s = a.edge_stats(0, 2);
  EXPECT_EQ(s.violation_count, 1u);
  EXPECT_EQ(s.witness_count, 2u);
  EXPECT_DOUBLE_EQ(s.mean_ratio, 10.0);
  EXPECT_DOUBLE_EQ(s.max_ratio, 10.0);
  EXPECT_DOUBLE_EQ(s.violating_fraction(), 0.5);
  // The short edge 0-1 has a witness (node 2) but no violation.
  const EdgeTivStats short_edge = a.edge_stats(0, 1);
  EXPECT_EQ(short_edge.violation_count, 0u);
  EXPECT_DOUBLE_EQ(short_edge.mean_ratio, 0.0);
  EXPECT_DOUBLE_EQ(short_edge.max_ratio, 0.0);
}

TEST(Severity, MetricSpaceHasZeroSeverityEverywhere) {
  // Points on a line: the triangle inequality holds with equality at worst.
  DelayMatrix m(8);
  const float pos[8] = {0, 3, 7, 15, 40, 90, 200, 450};
  for (delayspace::HostId i = 0; i < 8; ++i) {
    for (delayspace::HostId j = i + 1; j < 8; ++j) {
      m.set(i, j, std::abs(pos[i] - pos[j]));
    }
  }
  const TivAnalyzer a(m);
  const SeverityMatrix sev = a.all_severities();
  for (delayspace::HostId i = 0; i < 8; ++i) {
    for (delayspace::HostId j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(sev.at(i, j), 0.0f);
    }
  }
  EXPECT_DOUBLE_EQ(a.violating_triangle_fraction(), 0.0);
}

TEST(Severity, AllSeveritiesMatchesSingleEdgeComputation) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 50;
  p.topology.seed = 41;
  p.hosts.num_hosts = 90;
  p.hosts.seed = 42;
  const auto ds = delayspace::generate_delay_space(p);
  const TivAnalyzer a(ds.measured);
  const SeverityMatrix sev = a.all_severities();
  Rng rng(1);
  for (int k = 0; k < 200; ++k) {
    const auto i = static_cast<delayspace::HostId>(rng.uniform_index(90));
    const auto j = static_cast<delayspace::HostId>(rng.uniform_index(90));
    if (i == j) continue;
    EXPECT_EQ(sev.at(i, j), static_cast<float>(a.edge_severity(i, j)));
    EXPECT_NEAR(sev.at(i, j),
                reference::edge_stats_scalar(ds.measured, i, j).severity,
                1e-5);
  }
}

TEST(Severity, MatrixIsSymmetric) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 50;
  p.topology.seed = 43;
  p.hosts.num_hosts = 60;
  p.hosts.seed = 44;
  const auto ds = delayspace::generate_delay_space(p);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  for (delayspace::HostId i = 0; i < 60; ++i) {
    for (delayspace::HostId j = i + 1; j < 60; ++j) {
      EXPECT_FLOAT_EQ(sev.at(i, j), sev.at(j, i));
    }
  }
}

TEST(Severity, ScaleInvariant) {
  // Severity is a ratio metric: multiplying all delays by a constant must
  // not change it.
  const DelayMatrix m = hand_matrix();
  DelayMatrix scaled(4);
  for (delayspace::HostId i = 0; i < 4; ++i) {
    for (delayspace::HostId j = i + 1; j < 4; ++j) {
      scaled.set(i, j, m.at(i, j) * 7.5f);
    }
  }
  const TivAnalyzer a(m);
  const TivAnalyzer b(scaled);
  EXPECT_NEAR(a.edge_severity(0, 2), b.edge_severity(0, 2), 1e-9);
}

TEST(Severity, MissingLegsExcluded) {
  DelayMatrix m(4);
  m.set(0, 2, 100.0f);
  m.set(0, 1, 5.0f);
  // 1-2 missing: witness 1 cannot certify a violation of 0-2.
  m.set(0, 3, 5.0f);
  m.set(2, 3, 5.0f);
  const TivAnalyzer a(m);
  const EdgeTivStats s = a.edge_stats(0, 2);
  EXPECT_EQ(s.witness_count, 1u);  // only node 3 has both legs
  EXPECT_EQ(s.violation_count, 1u);
  EXPECT_NEAR(s.severity, (100.0 / 10.0) / 4.0, 1e-9);
  const EdgeTivStats oracle = reference::edge_stats_scalar(m, 0, 2);
  EXPECT_EQ(s.witness_count, oracle.witness_count);
  EXPECT_EQ(s.violation_count, oracle.violation_count);
  EXPECT_EQ(s.max_ratio, oracle.max_ratio);
}

TEST(Severity, UnmeasuredEdgeHasZeroSeverity) {
  DelayMatrix m(3);
  m.set(0, 1, 5.0f);
  const TivAnalyzer a(m);
  EXPECT_DOUBLE_EQ(a.edge_severity(0, 2), 0.0);
  EXPECT_EQ(a.edge_stats(0, 2).witness_count, 0u);
}

TEST(Severity, SampledSeveritiesAreConsistent) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 50;
  p.topology.seed = 45;
  p.hosts.num_hosts = 80;
  p.hosts.seed = 46;
  const auto ds = delayspace::generate_delay_space(p);
  const TivAnalyzer a(ds.measured);
  const auto samples = a.sampled_severities(100, 9);
  EXPECT_EQ(samples.size(), 100u);
  for (const auto& [edge, sev] : samples) {
    EXPECT_EQ(sev, a.edge_severity(edge.first, edge.second));
    EXPECT_NEAR(
        sev,
        reference::edge_stats_scalar(ds.measured, edge.first, edge.second)
            .severity,
        1e-9);
  }
}

TEST(Severity, TriangleFractionExactVsSampledAgree) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 50;
  p.topology.seed = 47;
  p.hosts.num_hosts = 70;
  p.hosts.seed = 48;
  const auto ds = delayspace::generate_delay_space(p);
  const TivAnalyzer a(ds.measured);
  const double exact = a.violating_triangle_fraction();
  const double sampled = a.violating_triangle_fraction(200000);
  EXPECT_GT(exact, 0.0);
  EXPECT_NEAR(sampled, exact, 0.02);
}

TEST(Severity, TriangleFractionHandCase) {
  // hand_matrix has 4 triangles; only (0,1,2) violates.
  const DelayMatrix m = hand_matrix();
  const TivAnalyzer a(m);
  EXPECT_NEAR(a.violating_triangle_fraction(), 0.25, 1e-9);
}

TEST(SeverityMatrixValues, ListsOnlyMeasuredEdges) {
  DelayMatrix m(3);
  m.set(0, 1, 5.0f);
  SeverityMatrix sev(3);
  sev.set(0, 1, 1.5f);
  sev.set(0, 2, 9.9f);  // unmeasured edge: excluded
  const auto vals = sev.values_for_measured_edges(m);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 1.5);
}

// Severity definition sanity over generated spaces of several sizes.
class SeverityGeneratedSweep : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SeverityGeneratedSweep, SeveritiesNonNegativeAndTailExists) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 60;
  p.topology.seed = GetParam();
  p.hosts.num_hosts = GetParam();
  p.hosts.seed = GetParam() + 1;
  const auto ds = delayspace::generate_delay_space(p);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  double max_sev = 0.0;
  for (delayspace::HostId i = 0; i < ds.measured.size(); ++i) {
    for (delayspace::HostId j = i + 1; j < ds.measured.size(); ++j) {
      EXPECT_GE(sev.at(i, j), 0.0f);
      max_sev = std::max(max_sev, static_cast<double>(sev.at(i, j)));
    }
  }
  // The synthetic Internet must actually contain severe TIVs.
  EXPECT_GT(max_sev, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SeverityGeneratedSweep,
                         ::testing::Values(100u, 200u, 350u));

}  // namespace
}  // namespace tiv::core
