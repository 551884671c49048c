// The batched masked-view edge engine and the shared duplicate-free pair
// sampler (core/edge_sampling.*, TivAnalyzer::edge_stats_batch /
// edge_severity_batch).
//
// Contracts under test:
//  - sample_measured_pairs returns distinct measured pairs and reports
//    achieved-vs-requested instead of silently under-sampling when the
//    rejection budget exhausts on a missing-heavy matrix;
//  - the batched engine's integer counts and max ratios equal the scalar
//    oracle's (tiv::reference::edge_stats_scalar) exactly, its severities
//    are bit-identical to the all_severities kernel's per-edge values, and
//    both hold on dense, 30%-missing, missing-heavy, and tiny (n < 8)
//    matrices;
//  - every per-edge entry point — edge_stats, edge_severity, and batches
//    with a caller's view, a local view, or per-edge scratch rows —
//    returns the same bits.
#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_sampling.hpp"
#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "delayspace/generate.hpp"
#include "matrix_test_utils.hpp"
#include "reference/oracles.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using tiv::test::random_matrix;

// --- Duplicate-free sampling -----------------------------------------------

TEST(SampleMeasuredPairs, NearExhaustiveSamplingYieldsDistinctPairs) {
  // 12 hosts, dense: 66 edges. Asking for 60 of them forces the sampler to
  // reject many duplicates; every returned pair must still be distinct.
  const DelayMatrix m = random_matrix(12, 0.0, 19);
  const PairSample sample = sample_measured_pairs(m, 60, 5);
  EXPECT_EQ(sample.requested, 60u);
  EXPECT_EQ(sample.achieved(), 60u);
  EXPECT_FALSE(sample.exhausted);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [i, j] : sample.pairs) {
    EXPECT_LT(i, j);
    EXPECT_TRUE(m.has(i, j));
    EXPECT_TRUE(unique.insert({i, j}).second)
        << "duplicate pair (" << i << ", " << j << ")";
  }
}

TEST(SampleMeasuredPairs, MostlyMissingMatrixReportsAchievedCount) {
  // Only 5 measured edges among 780 pairs: a request for 200 must exhaust
  // the attempt budget and say so, not silently return a short vector.
  DelayMatrix m(40);
  for (HostId j = 1; j <= 5; ++j) m.set(0, j, 10.0f * j);
  const PairSample sample = sample_measured_pairs(m, 200, 7);
  EXPECT_EQ(sample.requested, 200u);
  EXPECT_LE(sample.achieved(), 5u);
  EXPECT_LT(sample.achieved(), sample.requested);
  EXPECT_TRUE(sample.exhausted);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [i, j] : sample.pairs) {
    EXPECT_TRUE(m.has(i, j));
    EXPECT_TRUE(unique.insert({i, j}).second);
  }
}

TEST(SampleMeasuredPairs, RequirePositiveRejectsZeroDelays) {
  DelayMatrix m(6);
  m.set(0, 1, 0.0f);  // measured but zero
  m.set(2, 3, 5.0f);
  m.set(4, 5, 7.0f);
  PairSampleOptions opt;
  opt.require_positive = true;
  const PairSample sample = sample_measured_pairs(m, 10, 3, opt);
  EXPECT_EQ(sample.achieved(), 2u);
  for (const auto& [i, j] : sample.pairs) EXPECT_GT(m.at(i, j), 0.0f);
}

TEST(SampleMeasuredPairs, TinyAndEmptyMatricesExhaustImmediately) {
  const DelayMatrix empty(0);
  const PairSample s0 = sample_measured_pairs(empty, 10, 1);
  EXPECT_EQ(s0.achieved(), 0u);
  EXPECT_TRUE(s0.exhausted);
  const DelayMatrix one(1);
  const PairSample s1 = sample_measured_pairs(one, 10, 1);
  EXPECT_EQ(s1.achieved(), 0u);
  EXPECT_TRUE(s1.exhausted);
}

TEST(SampleMeasuredPairs, MatchesSampledSeveritiesDrawSequence) {
  // The shared sampler must reproduce the exact edges sampled_severities
  // has always drawn for a given seed (it inherited that sampler).
  delayspace::DelayMatrix m = random_matrix(50, 0.2, 23);
  const TivAnalyzer analyzer(m);
  const auto samples = analyzer.sampled_severities(80, 42);
  const PairSample sample = sample_measured_pairs(m, 80, 42);
  ASSERT_EQ(samples.size(), sample.pairs.size());
  for (std::size_t e = 0; e < samples.size(); ++e) {
    EXPECT_EQ(samples[e].first, sample.pairs[e]);
  }
}

// --- Batched edge engine ----------------------------------------------------

std::vector<std::pair<HostId, HostId>> all_pairs(HostId n) {
  std::vector<std::pair<HostId, HostId>> out;
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i; j < n; ++j) out.emplace_back(i, j);  // includes i == j
  }
  return out;
}

void expect_batch_matches_scalar(const DelayMatrix& m) {
  const TivAnalyzer analyzer(m);
  const auto edges = all_pairs(m.size());
  const DelayMatrixView view(m);
  // Both the prebuilt-view path and the self-building path must agree with
  // the scalar oracle.
  const auto with_view = analyzer.edge_stats_batch(edges, &view);
  const auto self_built = analyzer.edge_stats_batch(edges);
  const auto severities = analyzer.edge_severity_batch(edges, &view);
  const auto counts = analyzer.edge_violation_count_batch(edges, &view);
  ASSERT_EQ(with_view.size(), edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, c] = edges[e];
    const EdgeTivStats scalar = reference::edge_stats_scalar(m, a, c);
    const EdgeTivStats& batch = with_view[e];
    // Integer counts: exact (both the full-stats and count-only batches).
    EXPECT_EQ(batch.violation_count, scalar.violation_count)
        << "edge (" << a << ", " << c << ")";
    EXPECT_EQ(counts[e], scalar.violation_count)
        << "edge (" << a << ", " << c << ")";
    EXPECT_EQ(batch.witness_count, scalar.witness_count)
        << "edge (" << a << ", " << c << ")";
    // max_ratio terms are computed identically in both paths: exact.
    EXPECT_EQ(batch.max_ratio, scalar.max_ratio);
    // Sums differ only in lane order: ~1e-15 relative.
    const double tol =
        1e-12 * std::max({1.0, std::abs(batch.severity),
                          std::abs(scalar.severity)});
    EXPECT_NEAR(batch.severity, scalar.severity, tol)
        << "edge (" << a << ", " << c << ")";
    EXPECT_NEAR(batch.mean_ratio, scalar.mean_ratio,
                1e-12 * std::max(1.0, std::abs(scalar.mean_ratio)));
    // severity-only batch equals the stats batch bit for bit (same kernel
    // lanes, same reduction).
    EXPECT_EQ(severities[e], batch.severity);
    // The self-building path (a local view here) runs the same kernel over
    // the same bytes: bit for bit.
    EXPECT_EQ(self_built[e].violation_count, batch.violation_count);
    EXPECT_EQ(self_built[e].witness_count, batch.witness_count);
    EXPECT_EQ(self_built[e].severity, batch.severity);
    EXPECT_EQ(self_built[e].mean_ratio, batch.mean_ratio);
  }
}

TEST(EdgeStatsBatch, MatchesScalarDense) {
  expect_batch_matches_scalar(random_matrix(64, 0.0, 31));
}

TEST(EdgeStatsBatch, MatchesScalarThirtyPercentMissing) {
  expect_batch_matches_scalar(random_matrix(64, 0.3, 32));
}

TEST(EdgeStatsBatch, MatchesScalarMissingHeavy) {
  expect_batch_matches_scalar(random_matrix(48, 0.9, 33));
}

TEST(EdgeStatsBatch, MatchesScalarTinyMatrices) {
  for (const HostId n : {2u, 3u, 4u, 5u, 7u}) {
    expect_batch_matches_scalar(random_matrix(n, 0.2, 200 + n));
  }
}

TEST(EdgeStatsBatch, SeverityBitIdenticalToAllSeveritiesKernel) {
  // The batch kernel feeds the same accumulator lanes and reduction tree as
  // the blocked all-edges kernel, so after the same float rounding the two
  // must agree bit for bit.
  const DelayMatrix m = random_matrix(70, 0.25, 37);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const SeverityMatrix sev = analyzer.all_severities(&view);
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) edges.emplace_back(i, j);
  }
  const auto batch = analyzer.edge_severity_batch(edges, &view);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(static_cast<float>(batch[e]),
              sev.at(edges[e].first, edges[e].second))
        << "edge (" << edges[e].first << ", " << edges[e].second << ")";
  }
}

TEST(EdgeStatsBatch, UnmeasuredAndSelfEdgesAreZero) {
  DelayMatrix m(5);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 7.0f);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const std::vector<std::pair<HostId, HostId>> edges{
      {0, 2},  // unmeasured
      {3, 3},  // self
      {0, 1},  // measured
  };
  const auto batch = analyzer.edge_stats_batch(edges, &view);
  EXPECT_EQ(batch[0].witness_count, 0u);
  EXPECT_DOUBLE_EQ(batch[0].severity, 0.0);
  EXPECT_EQ(batch[1].witness_count, 0u);
  EXPECT_DOUBLE_EQ(batch[1].severity, 0.0);
  EXPECT_EQ(batch[2].witness_count,
            reference::edge_stats_scalar(m, 0, 1).witness_count);
}

TEST(EdgeStatsBatch, AllSeveritiesAcceptsPrebuiltView) {
  const DelayMatrix m = random_matrix(40, 0.2, 41);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const SeverityMatrix with_view = analyzer.all_severities(&view);
  const SeverityMatrix self_built = analyzer.all_severities();
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      EXPECT_EQ(with_view.at(i, j), self_built.at(i, j));
    }
  }
}

// --- One witness loop for every per-edge entry point -----------------------

/// Every per-edge entry point must return its edge's all_severities value,
/// bit for bit after the float cast: edge_stats, edge_severity, and
/// no-view batches of 1 and n/4 - 1 edges (per-edge scratch rows) and of n
/// edges (a local view). Counts and max ratios must equal the scalar
/// oracle's exactly.
void expect_every_entry_point_matches_kernel(const DelayMatrix& m) {
  const TivAnalyzer analyzer(m);
  const SeverityMatrix sev = analyzer.all_severities();
  const HostId n = m.size();
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  std::size_t mismatches = 0;
  const auto check = [&](bool ok, const char* what, HostId a, HostId c) {
    if (!ok && ++mismatches <= 10) {
      ADD_FAILURE() << what << " differs on edge (" << a << ", " << c
                    << ") of n=" << n;
    }
  };
  const auto check_stats = [&](const EdgeTivStats& got, HostId a, HostId c,
                               const char* what) {
    const EdgeTivStats want = reference::edge_stats_scalar(m, a, c);
    check(static_cast<float>(got.severity) == sev.at(a, c), what, a, c);
    check(got.violation_count == want.violation_count &&
              got.witness_count == want.witness_count &&
              got.max_ratio == want.max_ratio,
          what, a, c);
  };
  for (const auto& [a, c] : edges) {
    check_stats(analyzer.edge_stats(a, c), a, c, "edge_stats");
    check(static_cast<float>(analyzer.edge_severity(a, c)) == sev.at(a, c),
          "edge_severity", a, c);
  }
  for (const std::size_t size : {std::size_t{1}, std::size_t{n / 4 - 1},
                                 std::size_t{n}}) {
    for (std::size_t begin = 0; begin < edges.size(); begin += size) {
      const std::span<const std::pair<HostId, HostId>> batch(
          edges.data() + begin, std::min(size, edges.size() - begin));
      const auto stats = analyzer.edge_stats_batch(batch);
      const auto sevs = analyzer.edge_severity_batch(batch);
      const auto counts = analyzer.edge_violation_count_batch(batch);
      for (std::size_t e = 0; e < batch.size(); ++e) {
        const auto [a, c] = batch[e];
        check_stats(stats[e], a, c, "edge_stats_batch");
        check(static_cast<float>(sevs[e]) == sev.at(a, c),
              "edge_severity_batch", a, c);
        check(counts[e] == stats[e].violation_count,
              "edge_violation_count_batch", a, c);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(EdgeEntryPoints, BitIdenticalToAllSeveritiesDense) {
  expect_every_entry_point_matches_kernel(random_matrix(130, 0.0, 71));
}

TEST(EdgeEntryPoints, BitIdenticalToAllSeveritiesThirtyPercentMissing) {
  expect_every_entry_point_matches_kernel(random_matrix(130, 0.3, 72));
}

TEST(EdgeEntryPoints, BitIdenticalToAllSeveritiesDs2) {
  const auto ds = delayspace::generate_delay_space(
      delayspace::dataset_params(delayspace::DatasetId::kDs2, 257));
  expect_every_entry_point_matches_kernel(ds.measured);
}

TEST(EdgeEntryPoints, ScratchRowsCarryNothingOver) {
  // Per-edge calls reuse one scratch buffer per thread. A 17-host edge
  // scanned right after a 200-host one must see kMaskedDelay in its
  // padding columns and none of the earlier row's mask bits, or it would
  // count phantom witnesses and violations.
  const DelayMatrix big = random_matrix(200, 0.0, 61);
  const DelayMatrix small = random_matrix(17, 0.3, 62);
  const TivAnalyzer big_analyzer(big);
  const TivAnalyzer small_analyzer(small);
  for (HostId a = 0; a < small.size(); ++a) {
    for (HostId c = a + 1; c < small.size(); ++c) {
      (void)big_analyzer.edge_stats(a, c + 100);
      const EdgeTivStats got = small_analyzer.edge_stats(a, c);
      const EdgeTivStats want = reference::edge_stats_scalar(small, a, c);
      EXPECT_EQ(got.violation_count, want.violation_count);
      EXPECT_EQ(got.witness_count, want.witness_count);
      EXPECT_EQ(got.max_ratio, want.max_ratio);
    }
  }
}

// --- Sampled triangle fraction accounting -----------------------------------

TEST(TriangleFractionSampled, ReportsAchievedOnMostlyMissingMatrix) {
  // A 30-host matrix with one measured 4-clique: only 4 measurable
  // triangles among 4060. A 50k-triangle request cannot be met.
  DelayMatrix m(30);
  for (HostId i = 0; i < 4; ++i) {
    for (HostId j = i + 1; j < 4; ++j) m.set(i, j, 10.0f + i + j);
  }
  const TivAnalyzer analyzer(m);
  const auto sampled = analyzer.violating_triangle_fraction_sampled(50000, 9);
  EXPECT_EQ(sampled.requested, 50000u);
  EXPECT_LT(sampled.achieved, sampled.requested);
  EXPECT_TRUE(sampled.exhausted);
  // The fraction must still equal the double-returning wrapper exactly.
  EXPECT_EQ(sampled.fraction, analyzer.violating_triangle_fraction(50000, 9));
}

TEST(TriangleFractionSampled, FullySampledIsNotExhausted) {
  const DelayMatrix m = random_matrix(30, 0.1, 51);
  const TivAnalyzer analyzer(m);
  const auto sampled = analyzer.violating_triangle_fraction_sampled(2000, 3);
  EXPECT_EQ(sampled.achieved, 2000u);
  EXPECT_FALSE(sampled.exhausted);
  EXPECT_EQ(sampled.fraction, analyzer.violating_triangle_fraction(2000, 3));
}

}  // namespace
}  // namespace tiv::core
