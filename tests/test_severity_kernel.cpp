// Regression tests for the blocked, branch-free severity kernel and the
// machinery it rides on: the packed DelayMatrixView and the persistent
// thread pool's dynamic scheduling.
//
// The contract under test: all_severities (tiled, branch-free, dynamically
// scheduled) must match the scalar oracles of tiv::reference to within 1e-6
// relative on dense and sparse matrices, including the implicit b == a /
// b == c witness exclusions and exact-equality (non-)violations. The
// WitnessKernel tests pin the compiled witness_ratio_accumulate body to
// witness_ratio_accumulate_portable bit for bit, on every accumulator lane.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "delayspace/generate.hpp"
#include "matrix_test_utils.hpp"
#include "reference/oracles.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;

using tiv::test::random_matrix;

void expect_matches_scalar_reference(const DelayMatrix& m) {
  const TivAnalyzer a(m);
  const SeverityMatrix blocked = a.all_severities();
  const SeverityMatrix oracle = reference::all_severities_reference(m);
  const HostId n = m.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      const double got = blocked.at(i, j);
      const double scalar = reference::edge_stats_scalar(m, i, j).severity;
      const double ref = oracle.at(i, j);
      const double tol = 1e-6 * std::max({1.0, std::abs(got),
                                          std::abs(scalar)});
      EXPECT_NEAR(got, scalar, tol) << "edge (" << i << ", " << j << ")";
      // Against the seed bulk kernel the match is bit-exact: identical
      // per-term arithmetic, only the summation order differs, and both
      // round through float storage.
      EXPECT_FLOAT_EQ(blocked.at(i, j), static_cast<float>(ref))
          << "edge (" << i << ", " << j << ")";
    }
  }
}

TEST(SeverityKernel, MatchesScalarReferenceDense) {
  expect_matches_scalar_reference(random_matrix(133, 0.0, 11));
}

TEST(SeverityKernel, MatchesScalarReferenceThirtyPercentMissing) {
  expect_matches_scalar_reference(random_matrix(133, 0.3, 12));
}

TEST(SeverityKernel, MatchesScalarReferenceMultithreaded) {
  set_parallel_thread_count(4);
  expect_matches_scalar_reference(random_matrix(97, 0.3, 13));
  set_parallel_thread_count(0);
}

TEST(SeverityKernel, NonMultipleOfTileAndLaneSizes) {
  // Exercise the padded tail: sizes straddling the 16-float lane/tile edge.
  for (const HostId n : {15u, 16u, 17u, 31u, 33u}) {
    expect_matches_scalar_reference(random_matrix(n, 0.2, 100 + n));
  }
}

TEST(SeverityKernel, SelfWitnessExclusion) {
  // b == a and b == c witnesses have detour exactly d_ac; counting them
  // (ratio 1.0 each) would inflate every severity by 2/n. The violating
  // edge here has a true severity computable by hand.
  DelayMatrix m(4);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 2, 100.0f);
  m.set(0, 3, 200.0f);
  m.set(1, 3, 200.0f);
  m.set(2, 3, 200.0f);
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  EXPECT_NEAR(sev.at(0, 2), 2.5, 1e-6);  // only witness 1: (100/10)/4
  EXPECT_FLOAT_EQ(sev.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(sev.at(0, 3), 0.0f);
}

TEST(SeverityKernel, ExactEqualityIsNotAViolation) {
  // Colinear points: every detour equals d_ac exactly. The kernel's strict
  // `detour < d_ac` must not fire on equality (float arithmetic is exact
  // for these values).
  DelayMatrix m(5);
  const float pos[5] = {0, 8, 24, 56, 120};
  for (HostId i = 0; i < 5; ++i) {
    for (HostId j = i + 1; j < 5; ++j) m.set(i, j, pos[j] - pos[i]);
  }
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  for (HostId i = 0; i < 5; ++i) {
    for (HostId j = i + 1; j < 5; ++j) EXPECT_FLOAT_EQ(sev.at(i, j), 0.0f);
  }
}

TEST(SeverityKernel, TriangleFractionMatchesBruteForce) {
  const DelayMatrix m = random_matrix(61, 0.25, 17);
  const HostId n = m.size();
  std::size_t total = 0;
  std::size_t violating = 0;
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      for (HostId c = b + 1; c < n; ++c) {
        const float ab = m.at(a, b);
        const float bc = m.at(b, c);
        const float ac = m.at(a, c);
        if (ab < 0.0f || bc < 0.0f || ac < 0.0f) continue;
        ++total;
        violating += (ab + bc < ac || ab + ac < bc || bc + ac < ab) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(total, 0u);
  const double expected =
      static_cast<double>(violating) / static_cast<double>(total);
  EXPECT_NEAR(TivAnalyzer(m).violating_triangle_fraction(), expected, 1e-12);
}

TEST(SeverityKernel, SampledSeveritiesAreDistinct) {
  // Sampling is without replacement: near-exhaustive sampling of a small
  // matrix must not return any edge twice.
  const DelayMatrix m = random_matrix(12, 0.0, 19);  // 66 edges
  const auto samples = TivAnalyzer(m).sampled_severities(60, 5);
  EXPECT_EQ(samples.size(), 60u);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [edge, sev] : samples) {
    EXPECT_LT(edge.first, edge.second);
    EXPECT_TRUE(unique.insert(edge).second)
        << "duplicate edge (" << edge.first << ", " << edge.second << ")";
  }
}

// --- witness_ratio_accumulate: compiled body vs portable body -------------

constexpr float kMasked = DelayMatrixView::kMaskedDelay;

/// Runs both bodies from the same starting lanes and requires all 8 lane
/// doubles to be memcmp-equal; returns the compiled body's lanes.
std::vector<double> expect_bodies_identical(const float* ra, const float* rc,
                                            std::size_t len, float dac,
                                            const double* start) {
  std::vector<double> got(start, start + kWitnessLanes);
  std::vector<double> want(start, start + kWitnessLanes);
  witness_ratio_accumulate(ra, rc, len, dac, got.data());
  witness_ratio_accumulate_portable(ra, rc, len, dac, want.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        kWitnessLanes * sizeof(double)),
            0)
      << "len " << len << ", dac " << dac << " (" << kWitnessKernelIsa
      << " body)";
  return got;
}

/// Every measured pair (a, c) of m, scanned over the full padded stride.
void expect_bodies_identical_on_matrix(const DelayMatrix& m) {
  const DelayMatrixView v(m);
  const double zero[kWitnessLanes] = {};
  for (HostId a = 0; a < v.size(); ++a) {
    for (HostId c = a + 1; c < v.size(); ++c) {
      const float dac = v.row(a)[c];
      if (dac >= kMasked) continue;
      expect_bodies_identical(v.row(a), v.row(c), v.stride(), dac, zero);
    }
  }
}

/// Packed-view-like random row pair of len floats: uniform RTTs in
/// [1, 400) ms with a `missing` share of kMaskedDelay entries.
void random_rows(std::size_t len, double missing, std::uint64_t seed,
                 std::vector<float>& ra, std::vector<float>& rc) {
  Rng rng(seed);
  ra.resize(len);
  rc.resize(len);
  for (std::size_t b = 0; b < len; ++b) {
    ra[b] = rng.bernoulli(missing)
                ? kMasked
                : static_cast<float>(rng.uniform(1.0, 400.0));
    rc[b] = rng.bernoulli(missing)
                ? kMasked
                : static_cast<float>(rng.uniform(1.0, 400.0));
  }
}

TEST(WitnessKernel, MatchesPortableOnDenseRows) {
  expect_bodies_identical_on_matrix(random_matrix(133, 0.0, 31));
}

TEST(WitnessKernel, MatchesPortableOnThirtyPercentMissingRows) {
  expect_bodies_identical_on_matrix(random_matrix(133, 0.3, 32));
}

TEST(WitnessKernel, MatchesPortableOnRaggedRows) {
  // n = 257: the padded stride ends in a partial compaction chunk and a
  // row of mostly kMaskedDelay padding.
  expect_bodies_identical_on_matrix(random_matrix(257, 0.1, 33));
}

TEST(WitnessKernel, MatchesPortableOnDs2Rows) {
  // The DS^2 preset: few violators, mostly empty 8-witness blocks.
  const auto space = delayspace::generate_delay_space(
      delayspace::dataset_params(delayspace::DatasetId::kDs2, 257));
  expect_bodies_identical_on_matrix(space.measured);
}

TEST(WitnessKernel, MatchesPortableAcrossChunkTails) {
  // One block, whole chunks of 16 blocks, and chunks with a partial tail.
  std::vector<float> ra;
  std::vector<float> rc;
  const double zero[kWitnessLanes] = {};
  for (const std::size_t len : {8u, 64u, 120u, 128u, 136u, 1040u}) {
    random_rows(len, 0.1, 40 + len, ra, rc);
    for (const float dac : {50.0f, 200.0f, 400.0f, 800.0f}) {
      expect_bodies_identical(ra.data(), rc.data(), len, dac, zero);
    }
  }
}

TEST(WitnessKernel, AscendingChunkedCallsFromNonzeroLanes) {
  // Feeding a row in ascending chunks (as the out-of-core tile loops do)
  // from nonzero starting lanes matches the portable body after every
  // chunk, and the chunked sum equals one monolithic call bit for bit.
  std::vector<float> ra;
  std::vector<float> rc;
  random_rows(1040, 0.2, 51, ra, rc);
  const float dac = 300.0f;
  const double start[kWitnessLanes] = {0.5, 1.25, 3.0,  0.0,
                                       7.5, 2.0,  0.75, 11.0};
  std::vector<double> lanes(start, start + kWitnessLanes);
  std::size_t b = 0;
  for (const std::size_t chunk : {24u, 136u, 8u, 128u, 256u, 488u}) {
    lanes = expect_bodies_identical(ra.data() + b, rc.data() + b, chunk, dac,
                                    lanes.data());
    b += chunk;
  }
  ASSERT_EQ(b, ra.size());
  std::vector<double> whole(start, start + kWitnessLanes);
  witness_ratio_accumulate_portable(ra.data(), rc.data(), ra.size(), dac,
                                    whole.data());
  EXPECT_EQ(std::memcmp(lanes.data(), whole.data(),
                        kWitnessLanes * sizeof(double)),
            0);
}

TEST(WitnessKernel, AdversarialWitnesses) {
  constexpr std::size_t kLen = 136;
  const double zero[kWitnessLanes] = {};
  std::vector<float> ra(kLen);
  std::vector<float> rc(kLen);
  // Detours exactly equal to dac, zero detours (the diagonal: both legs 0),
  // and both legs masked, interleaved with genuine violators.
  const float dac = 100.0f;
  for (std::size_t b = 0; b < kLen; ++b) {
    switch (b % 4) {
      case 0: ra[b] = 40.0f; rc[b] = 60.0f; break;      // detour == dac
      case 1: ra[b] = 0.0f; rc[b] = 0.0f; break;        // detour == 0
      case 2: ra[b] = kMasked; rc[b] = kMasked; break;  // both missing
      default: ra[b] = 10.0f + b; rc[b] = 3.0f; break;  // violates
    }
  }
  const auto mixed =
      expect_bodies_identical(ra.data(), rc.data(), kLen, dac, zero);
  // Only the b % 4 == 3 witnesses count: lanes 3 and 7.
  for (std::size_t l = 0; l < kWitnessLanes; ++l) {
    EXPECT_EQ(mixed[l] > 0.0, l % 4 == 3) << "lane " << l;
  }

  // Every witness violates; none does.
  std::fill(ra.begin(), ra.end(), 1.0f);
  std::fill(rc.begin(), rc.end(), 2.0f);
  const auto all =
      expect_bodies_identical(ra.data(), rc.data(), kLen, dac, zero);
  for (const double lane : all) EXPECT_GT(lane, 0.0);
  const auto none =
      expect_bodies_identical(ra.data(), rc.data(), kLen, 3.0f, zero);
  for (const double lane : none) EXPECT_EQ(lane, 0.0);

  // Tiny and huge dac: subnormal-scale detours and near-sentinel ones.
  random_rows(kLen, 0.2, 61, ra, rc);
  for (std::size_t b = 0; b < kLen; b += 3) {
    ra[b] = 1e-38f;
    rc[b] = 2e-38f;
  }
  for (const float d : {1e-37f, 1e-30f, 1e20f, 1e29f}) {
    expect_bodies_identical(ra.data(), rc.data(), kLen, d, zero);
  }
}

TEST(DelayMatrixViewTest, PackingAndMask) {
  DelayMatrix m(5);
  m.set(0, 1, 5.0f);
  m.set(0, 3, 7.0f);
  m.set(2, 3, 9.0f);
  const DelayMatrixView view(m);
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(view.stride() % DelayMatrixView::kLaneFloats, 0u);
  EXPECT_GE(view.stride(), 5u);
  // Measured entries survive; missing and padding become the sentinel; the
  // diagonal stays zero.
  EXPECT_FLOAT_EQ(view.row(0)[1], 5.0f);
  EXPECT_FLOAT_EQ(view.row(0)[3], 7.0f);
  EXPECT_FLOAT_EQ(view.row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(view.row(0)[2], DelayMatrixView::kMaskedDelay);
  for (std::size_t b = 5; b < view.stride(); ++b) {
    EXPECT_FLOAT_EQ(view.row(0)[b], DelayMatrixView::kMaskedDelay);
  }
  // Mask bit b of row i <=> has(i, b); own bit never set.
  for (HostId i = 0; i < 5; ++i) {
    for (HostId b = 0; b < 5; ++b) {
      const bool bit =
          (view.mask_row(i)[b >> 6] >> (b & 63)) & 1;
      EXPECT_EQ(bit, m.has(i, b)) << "(" << i << ", " << b << ")";
    }
  }
  // witness_count(0, 3): b must have measured legs to both 0 and 3.
  // Node 1: 0-1 measured, 1-3 missing. Node 2: 0-2 missing. Node 4: none.
  EXPECT_EQ(view.witness_count(0, 3), 0u);
  // witness_count(0, 2) once 1-2 is measured: node 1 (0-1, 1-2) and node 3
  // (0-3, 2-3) both have legs to each endpoint.
  m.set(1, 2, 4.0f);
  const DelayMatrixView view2(m);
  EXPECT_EQ(view2.witness_count(0, 2), 2u);
}

TEST(DelayMatrixViewTest, RowsAreCacheLineAligned) {
  const DelayMatrix m = random_matrix(33, 0.1, 23);
  const DelayMatrixView view(m);
  for (HostId i = 0; i < m.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.row(i)) % 64, 0u);
  }
}

TEST(ParallelDynamic, CoversEveryIndexExactlyOnce) {
  set_parallel_thread_count(4);
  std::vector<std::atomic<int>> hits(1013);
  parallel_for_dynamic(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, NestedCallsRunInline) {
  set_parallel_thread_count(4);
  std::atomic<long> sum{0};
  parallel_for(8, [&](std::size_t) {
    // Must not deadlock; the nested loop runs serially on this thread.
    parallel_for_dynamic(100, 3, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
    });
  });
  EXPECT_EQ(sum.load(), 8 * 4950);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, PoolSurvivesRepeatedResizing) {
  for (int round = 0; round < 20; ++round) {
    set_parallel_thread_count(1 + round % 5);
    std::atomic<long> sum{0};
    parallel_for_dynamic(500, 11, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 124750);
  }
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, ConcurrentTopLevelCallersAreSerialized) {
  // The pool's job slot is single-occupancy; simultaneous top-level loops
  // from different threads must queue, not corrupt each other's chunks.
  set_parallel_thread_count(3);
  std::atomic<long> sum_a{0};
  std::atomic<long> sum_b{0};
  std::thread other([&] {
    for (int r = 0; r < 25; ++r) {
      parallel_for_dynamic(400, 9, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) sum_a.fetch_add(1);
      });
    }
  });
  for (int r = 0; r < 25; ++r) {
    parallel_for(400, [&](std::size_t) { sum_b.fetch_add(1); });
  }
  other.join();
  EXPECT_EQ(sum_a.load(), 25 * 400);
  EXPECT_EQ(sum_b.load(), 25 * 400);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, SmallJobsDoNotShrinkThePool) {
  // Alternating large and tiny loops must not thrash the pool: a job with
  // fewer chunks than threads leaves surplus workers idle, it does not
  // restart the pool. (Behavioral check: results stay correct and the
  // sequence completes quickly even on 1 hardware core.)
  set_parallel_thread_count(4);
  for (int r = 0; r < 50; ++r) {
    std::atomic<long> big{0};
    parallel_for_dynamic(1000, 10, [&](std::size_t b, std::size_t e) {
      big.fetch_add(static_cast<long>(e - b));
    });
    EXPECT_EQ(big.load(), 1000);
    std::atomic<long> tiny{0};
    parallel_for(2, [&](std::size_t) { tiny.fetch_add(1); });
    EXPECT_EQ(tiny.load(), 2);
  }
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, CallerThreadExceptionPropagatesCleanly) {
  set_parallel_thread_count(3);
  // An exception on the *calling* thread (workers throwing terminates by
  // contract) must unwind without poisoning the pool. The caller claims
  // chunks alongside the workers, so with 64 single-index chunks it throws
  // on some attempt with overwhelming probability.
  const auto caller = std::this_thread::get_id();
  bool threw = false;
  for (int attempt = 0; attempt < 100 && !threw; ++attempt) {
    try {
      parallel_for_dynamic(64, 1, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() == caller) {
          throw std::runtime_error("boom");
        }
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  // The pool must still dispatch parallel work correctly afterwards.
  std::atomic<long> sum{0};
  parallel_for_dynamic(300, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 300 * 299 / 2);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, ZeroAndTinyRanges) {
  set_parallel_thread_count(3);
  int calls = 0;
  parallel_for_dynamic(0, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> ones{0};
  parallel_for_dynamic(1, 100, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    ones.fetch_add(1);
  });
  EXPECT_EQ(ones.load(), 1);
  set_parallel_thread_count(0);
}

}  // namespace
}  // namespace tiv::core
