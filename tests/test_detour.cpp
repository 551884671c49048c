// TIV-aware one-hop detour routing.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/detour.hpp"
#include "reference/oracles.hpp"
#include "delayspace/generate.hpp"
#include "matrix_test_utils.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;

/// Severely violated edge 0-1 (100 ms) with a relay cloud 5 ms from both.
DelayMatrix relay_cloud() {
  DelayMatrix m(10);
  m.set(0, 1, 100.0f);
  for (HostId w = 2; w < 10; ++w) {
    m.set(0, w, 5.0f);
    m.set(1, w, 5.0f);
    for (HostId w2 = w + 1; w2 < 10; ++w2) m.set(w, w2, 6.0f);
  }
  return m;
}

embedding::VivaldiSystem trained_system(const DelayMatrix& m) {
  embedding::VivaldiParams p;
  p.dimension = 3;
  p.seed = 7;
  embedding::VivaldiSystem sys(m, p);
  sys.run(400);
  return sys;
}

TEST(DetourRouter, OracleFindsBestRelay) {
  const DelayMatrix m = relay_cloud();
  const auto sys = trained_system(m);
  const DetourRouter router(sys, {});
  EXPECT_NEAR(router.oracle_one_hop(0, 1), 10.0, 1e-6);
  // For an un-violated edge the direct path is the oracle.
  EXPECT_NEAR(router.oracle_one_hop(2, 3), 6.0, 1e-6);
}

TEST(DetourRouter, DetoursAlertedEdge) {
  const DelayMatrix m = relay_cloud();
  const auto sys = trained_system(m);
  // Sanity: the 0-1 edge must be alerted (it is crushed by 16 witnesses).
  ASSERT_LT(sys.prediction_ratio(0, 1), 0.6);
  const DetourRouter router(sys, {});
  Rng rng(1);
  const DetourDecision d = router.route(0, 1, rng);
  EXPECT_TRUE(d.alerted);
  EXPECT_TRUE(d.detoured);
  EXPECT_NEAR(d.achieved_ms, 10.0, 1e-6);
  EXPECT_GT(d.probes, 0u);
}

TEST(DetourRouter, LeavesCleanEdgesAlone) {
  const DelayMatrix m = relay_cloud();
  const auto sys = trained_system(m);
  const DetourRouter router(sys, {});
  Rng rng(1);
  const DetourDecision d = router.route(2, 3, rng);
  EXPECT_FALSE(d.alerted);
  EXPECT_FALSE(d.detoured);
  EXPECT_EQ(d.probes, 0u);
  EXPECT_DOUBLE_EQ(d.achieved_ms, d.direct_ms);
}

TEST(DetourRouter, AchievedNeverWorseThanDirect) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 60;
  p.topology.seed = 101;
  p.hosts.num_hosts = 200;
  p.hosts.seed = 102;
  const auto ds = delayspace::generate_delay_space(p);
  const auto sys = trained_system(ds.measured);
  const DetourRouter router(sys, {});
  Rng rng(3);
  for (int k = 0; k < 300; ++k) {
    const auto a = static_cast<HostId>(rng.uniform_index(200));
    const auto b = static_cast<HostId>(rng.uniform_index(200));
    if (a == b) continue;
    Rng r2(k);
    const DetourDecision d = router.route(a, b, r2);
    EXPECT_LE(d.achieved_ms, d.direct_ms + 1e-6);
    EXPECT_GE(d.achieved_ms, router.oracle_one_hop(a, b) - 1e-6);
  }
}

using tiv::test::random_matrix;

TEST(DetourRouter, MaskedOracleExactlyEqualsScalarOracle) {
  // The masked lane scan and the seed's branchy scan do identical double
  // arithmetic and min is order-free, so the two must agree bit for bit —
  // including pairs with no direct measurement and pairs with no valid
  // relay, on dense, 30%-missing, missing-heavy, and tiny matrices.
  struct Case {
    HostId n;
    double missing;
  };
  for (const Case c : {Case{40, 0.0}, Case{40, 0.3}, Case{32, 0.9},
                       Case{2, 0.0}, Case{3, 0.5}, Case{5, 0.3},
                       Case{7, 0.95}}) {
    const DelayMatrix m = random_matrix(c.n, c.missing, 400 + c.n);
    embedding::VivaldiParams vp;
    vp.seed = 5;
    const embedding::VivaldiSystem sys(m, vp);
    const DetourRouter router(sys, {});
    for (HostId a = 0; a < c.n; ++a) {
      for (HostId b = a + 1; b < c.n; ++b) {
        EXPECT_EQ(router.oracle_one_hop(a, b),
                  reference::oracle_one_hop_scalar(m, a, b))
            << "n=" << c.n << " missing=" << c.missing << " pair (" << a
            << ", " << b << ")";
      }
    }
  }
}

TEST(DetourRouter, AcceptsPrebuiltView) {
  const DelayMatrix m = relay_cloud();
  const auto sys = trained_system(m);
  const DelayMatrixView view(m);
  const DetourRouter with_view(sys, {}, &view);
  const DetourRouter self_built(sys, {});
  Rng rng(1);
  for (HostId a = 0; a < m.size(); ++a) {
    for (HostId b = a + 1; b < m.size(); ++b) {
      EXPECT_EQ(with_view.oracle_one_hop(a, b),
                self_built.oracle_one_hop(a, b));
      const DetourDecision da = with_view.route(a, b, rng);
      const DetourDecision db = self_built.route(a, b, rng);
      EXPECT_EQ(da.achieved_ms, db.achieved_ms);
      EXPECT_EQ(da.probes, db.probes);
    }
  }
}

TEST(DetourRouter, UnmeasuredPairEarlyReturnsWithMeasuredFlag) {
  // (0, 1) has no measurement: route must flag it and spend nothing,
  // instead of alerting on a NaN prediction ratio and probing relays.
  DelayMatrix m(4);
  m.set(0, 2, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 3, 6.0f);
  m.set(1, 3, 6.0f);
  m.set(2, 3, 4.0f);
  embedding::VivaldiParams vp;
  vp.seed = 11;
  embedding::VivaldiSystem sys(m, vp);
  sys.run(50);
  const DetourRouter router(sys, {});
  Rng rng(2);
  const DetourDecision d = router.route(0, 1, rng);
  EXPECT_FALSE(d.measured);
  EXPECT_FALSE(d.alerted);
  EXPECT_FALSE(d.detoured);
  EXPECT_EQ(d.probes, 0u);
  EXPECT_TRUE(std::isinf(d.direct_ms));
  EXPECT_TRUE(std::isinf(d.achieved_ms));
  // A measured pair reports the flag set.
  EXPECT_TRUE(router.route(0, 2, rng).measured);
}

TEST(DetourEvaluation, ReportsAchievedVsRequestedOnSparseMatrix) {
  // 4 positive measured edges in a 20-host matrix: a 500-edge request must
  // exhaust, and the duplicate-free sampler caps achieved at 4 distinct
  // edges (the old sampler padded the shortfall with duplicates).
  DelayMatrix m(20);
  m.set(0, 1, 10.0f);
  m.set(2, 3, 12.0f);
  m.set(4, 5, 14.0f);
  m.set(6, 7, 16.0f);
  embedding::VivaldiParams vp;
  vp.seed = 13;
  embedding::VivaldiSystem sys(m, vp);
  sys.run(50);
  const DetourEvaluation eval = evaluate_detour_routing(sys, {}, 500);
  EXPECT_EQ(eval.edges_requested, 500u);
  EXPECT_LE(eval.edges, 4u);
  EXPECT_LT(eval.edges, eval.edges_requested);
}

TEST(DetourEvaluation, TivAwareBeatsDirectAndSpendsFewerProbesThanRandom) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 70;
  p.topology.seed = 103;
  p.hosts.num_hosts = 300;
  p.hosts.seed = 104;
  const auto ds = delayspace::generate_delay_space(p);
  const auto sys = trained_system(ds.measured);
  const DetourEvaluation eval = evaluate_detour_routing(sys, {}, 2000);
  ASSERT_GT(eval.edges, 1000u);
  // Detouring helps on average and never hurts.
  EXPECT_LE(eval.achieved_ms.mean, eval.direct_ms.mean);
  EXPECT_GE(eval.achieved_ms.mean, eval.oracle_ms.mean);
  // Stretch relative to the one-hop oracle improves.
  EXPECT_LT(eval.mean_stretch_achieved, eval.mean_stretch_direct);
  // The alert gate spends far fewer probes than probing relays everywhere.
  EXPECT_LT(eval.probes_tiv_aware, eval.probes_random / 4);
  EXPECT_GT(eval.alerted_edges, 0u);
}

TEST(DetourEvaluation, ThresholdZeroDisablesDetours) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 60;
  p.topology.seed = 105;
  p.hosts.num_hosts = 150;
  p.hosts.seed = 106;
  const auto ds = delayspace::generate_delay_space(p);
  const auto sys = trained_system(ds.measured);
  DetourParams dp;
  dp.alert_threshold = 0.0;
  const DetourEvaluation eval = evaluate_detour_routing(sys, dp, 500);
  EXPECT_EQ(eval.alerted_edges, 0u);
  EXPECT_EQ(eval.probes_tiv_aware, 0u);
  EXPECT_DOUBLE_EQ(eval.achieved_ms.mean, eval.direct_ms.mean);
}

}  // namespace
}  // namespace tiv::core
