// DelayMatrix, the delay-space generator, dataset presets, and overlay
// shortest paths.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "delayspace/generate.hpp"
#include "delayspace/overlay.hpp"

namespace tiv::delayspace {
namespace {

TEST(DelayMatrix, DiagonalIsZeroAndRestMissing) {
  const DelayMatrix m(4);
  for (HostId i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(m.at(i, i), 0.0f);
    for (HostId j = 0; j < 4; ++j) {
      if (i != j) EXPECT_FALSE(m.has(i, j));
    }
  }
  EXPECT_EQ(m.measured_pair_count(), 0u);
  EXPECT_DOUBLE_EQ(m.missing_fraction(), 1.0);
}

TEST(DelayMatrix, SetIsSymmetric) {
  DelayMatrix m(3);
  m.set(0, 2, 12.5f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 12.5f);
  EXPECT_FLOAT_EQ(m.at(2, 0), 12.5f);
  EXPECT_TRUE(m.has(0, 2));
  EXPECT_EQ(m.measured_pair_count(), 1u);
}

TEST(DelayMatrix, SetMissingClears) {
  DelayMatrix m(3);
  m.set(0, 1, 5.0f);
  m.set_missing(0, 1);
  EXPECT_FALSE(m.has(0, 1));
}

TEST(DelayMatrix, RowSpanMatchesAt) {
  DelayMatrix m(3);
  m.set(1, 0, 7.0f);
  m.set(1, 2, 9.0f);
  const auto row = m.row(1);
  EXPECT_FLOAT_EQ(row[0], 7.0f);
  EXPECT_FLOAT_EQ(row[1], 0.0f);
  EXPECT_FLOAT_EQ(row[2], 9.0f);
}

TEST(DelayMatrix, AllDelaysListsMeasuredPairsOnce) {
  DelayMatrix m(3);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 6.0f);
  const auto d = m.all_delays();
  ASSERT_EQ(d.size(), 2u);
}

TEST(DelayMatrix, SaveLoadRoundTrip) {
  DelayMatrix m(5);
  m.set(0, 1, 5.25f);
  m.set(2, 4, 100.5f);
  const std::string path = "/tmp/tivnet_test_matrix.txt";
  m.save(path);
  const DelayMatrix loaded = DelayMatrix::load(path);
  EXPECT_TRUE(m == loaded);
  std::filesystem::remove(path);
}

TEST(DelayMatrix, LoadRejectsMalformed) {
  const std::string path = "/tmp/tivnet_test_bad_matrix.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("3\n0 0 5.0\n", f);  // self edge
    fclose(f);
  }
  EXPECT_THROW(DelayMatrix::load(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(DelayMatrix::load("/nonexistent/file"), std::runtime_error);
}

DelaySpaceParams small_space(std::uint32_t hosts = 150) {
  DelaySpaceParams p;
  p.topology.num_ases = 60;
  p.topology.seed = 3;
  p.hosts.num_hosts = hosts;
  p.hosts.seed = 4;
  return p;
}

TEST(Generate, ProducesFullSymmetricMatrix) {
  const DelaySpace ds = generate_delay_space(small_space());
  const auto& m = ds.measured;
  EXPECT_EQ(m.size(), 150u);
  EXPECT_DOUBLE_EQ(m.missing_fraction(), 0.0);
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      EXPECT_FLOAT_EQ(m.at(i, j), m.at(j, i));
      EXPECT_GT(m.at(i, j), 0.0f);
    }
  }
}

TEST(Generate, MeasuredAtLeastOptimalWithoutArtifacts) {
  DelaySpaceParams p = small_space();
  p.hosts.under_measurement_prob = 0.0;
  const DelaySpace ds = generate_delay_space(p);
  for (HostId i = 0; i < ds.measured.size(); ++i) {
    for (HostId j = i + 1; j < ds.measured.size(); ++j) {
      EXPECT_GE(ds.measured.at(i, j), ds.optimal.at(i, j) - 1e-3f);
    }
  }
}

TEST(Generate, MeasurementArtifactsAreRareAndLow) {
  DelaySpaceParams p = small_space(400);
  p.hosts.under_measurement_prob = 1e-3;
  const DelaySpace ds = generate_delay_space(p);
  std::size_t below_bound = 0;
  std::size_t total = 0;
  for (HostId i = 0; i < ds.measured.size(); ++i) {
    for (HostId j = i + 1; j < ds.measured.size(); ++j) {
      ++total;
      below_bound += ds.measured.at(i, j) < ds.optimal.at(i, j) * 0.9f;
    }
  }
  // Artifacts occur at roughly the configured rate, never in bulk.
  EXPECT_GT(below_bound, 0u);
  EXPECT_LT(static_cast<double>(below_bound) / static_cast<double>(total),
            5e-3);
}

TEST(Generate, GroundTruthMetadataIsConsistent) {
  const DelaySpace ds = generate_delay_space(small_space());
  EXPECT_EQ(ds.host_cluster.size(), 150u);
  EXPECT_EQ(ds.host_as.size(), 150u);
  EXPECT_EQ(ds.host_access_ms.size(), 150u);
  for (double a : ds.host_access_ms) EXPECT_GT(a, 0.0);
}

TEST(Generate, SameClusterPairsAreCloserOnAverage) {
  const DelaySpace ds = generate_delay_space(small_space(200));
  double intra = 0.0;
  double cross = 0.0;
  std::size_t ni = 0;
  std::size_t nc = 0;
  for (HostId i = 0; i < ds.measured.size(); ++i) {
    for (HostId j = i + 1; j < ds.measured.size(); ++j) {
      if (ds.host_cluster[i] < 0 || ds.host_cluster[j] < 0) continue;
      if (ds.host_cluster[i] == ds.host_cluster[j]) {
        intra += ds.measured.at(i, j);
        ++ni;
      } else {
        cross += ds.measured.at(i, j);
        ++nc;
      }
    }
  }
  ASSERT_GT(ni, 0u);
  ASSERT_GT(nc, 0u);
  EXPECT_GT(cross / nc, 2.0 * intra / ni);
}

TEST(Generate, MissingFractionHonored) {
  DelaySpaceParams p = small_space();
  p.hosts.missing_fraction = 0.3;
  const DelaySpace ds = generate_delay_space(p);
  EXPECT_NEAR(ds.measured.missing_fraction(), 0.3, 0.03);
}

TEST(Generate, DeterministicForSeeds) {
  const DelaySpace a = generate_delay_space(small_space());
  const DelaySpace b = generate_delay_space(small_space());
  EXPECT_TRUE(a.measured == b.measured);
}

TEST(Generate, NoiseChangesDelays) {
  DelaySpaceParams p = small_space();
  p.hosts.measurement_noise_sigma = 0.0;
  const DelaySpace quiet = generate_delay_space(p);
  p.hosts.measurement_noise_sigma = 0.1;
  const DelaySpace noisy = generate_delay_space(p);
  EXPECT_FALSE(quiet.measured == noisy.measured);
}

TEST(Generate, IidInflationVariantAlsoLowerBounded) {
  DelaySpaceParams p = small_space();
  p.hosts.under_measurement_prob = 0.0;
  const DelaySpace ds = generate_iid_inflation(p);
  for (HostId i = 0; i < ds.measured.size(); ++i) {
    for (HostId j = i + 1; j < ds.measured.size(); ++j) {
      EXPECT_GE(ds.measured.at(i, j), ds.optimal.at(i, j) - 1e-3f);
    }
  }
}

TEST(Datasets, PresetsHaveExpectedFullSizes) {
  EXPECT_EQ(dataset_full_size(DatasetId::kDs2), 4000u);
  EXPECT_EQ(dataset_full_size(DatasetId::kMeridian), 2500u);
  EXPECT_EQ(dataset_full_size(DatasetId::kP2psim), 1740u);
  EXPECT_EQ(dataset_full_size(DatasetId::kPlanetLab), 229u);
  EXPECT_EQ(all_datasets().size(), 4u);
}

TEST(Datasets, OverrideScalesHostsAndAses) {
  const auto p = dataset_params(DatasetId::kDs2, 320);
  EXPECT_EQ(p.hosts.num_hosts, 320u);
  EXPECT_GE(p.topology.num_ases, 40u);
  const DelaySpace ds = generate_delay_space(p);
  EXPECT_EQ(ds.measured.size(), 320u);
}

TEST(Datasets, OverrideAboveFullSizeThrows) {
  // The presets stand in for measured matrices of a fixed size; upscaling
  // past the paper-scale full size is a caller bug and must fail loudly
  // in Release too (the override is reachable from CLI flags).
  EXPECT_THROW(dataset_params(DatasetId::kDs2, 4001), std::invalid_argument);
  EXPECT_THROW(dataset_params(DatasetId::kPlanetLab, 230),
               std::invalid_argument);
  EXPECT_NO_THROW(dataset_params(DatasetId::kDs2, 4000));
}

TEST(Datasets, PresetsDiffer) {
  const DelaySpace ds2 = make_dataset(DatasetId::kDs2, 100);
  const DelaySpace mer = make_dataset(DatasetId::kMeridian, 100);
  EXPECT_FALSE(ds2.measured == mer.measured);
}

TEST(Overlay, ShortestPathThroughIntermediate) {
  DelayMatrix m(3);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 2, 100.0f);  // severe TIV edge
  const OverlayPaths paths(m);
  EXPECT_FLOAT_EQ(paths.delay(0, 2), 10.0f);
  EXPECT_FLOAT_EQ(paths.delay(0, 1), 5.0f);
}

TEST(Overlay, NeverExceedsDirectEdge) {
  const DelaySpace ds = generate_delay_space(small_space(120));
  const OverlayPaths paths(ds.measured);
  for (HostId i = 0; i < ds.measured.size(); ++i) {
    for (HostId j = 0; j < ds.measured.size(); ++j) {
      if (ds.measured.has(i, j)) {
        EXPECT_LE(paths.delay(i, j), ds.measured.at(i, j) + 1e-3f);
      }
    }
  }
}

TEST(Overlay, HandlesMissingDirectEdges) {
  DelayMatrix m(3);
  m.set(0, 1, 4.0f);
  m.set(1, 2, 6.0f);
  // 0-2 missing: reachable through 1.
  const OverlayPaths paths(m);
  EXPECT_FLOAT_EQ(paths.delay(0, 2), 10.0f);
}

TEST(Overlay, BlockedFwBitIdenticalToTextbookSweep) {
  // The blocked/tiled Floyd-Warshall must match an unblocked serial row
  // sweep bit-for-bit (EXPECT_EQ on floats, no tolerance): blocking changes
  // memory order only, never a computed value.
  const DelaySpace ds = generate_delay_space(small_space(150));
  const DelayMatrix& m = ds.measured;
  const std::size_t n = m.size();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> ref(n * n, kInf);
  for (HostId i = 0; i < n; ++i) {
    ref[static_cast<std::size_t>(i) * n + i] = 0.0f;
    for (HostId j = 0; j < n; ++j) {
      if (m.has(i, j)) ref[static_cast<std::size_t>(i) * n + j] = m.at(i, j);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const float dik = ref[i * n + k];
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const float via = dik + ref[k * n + j];
        if (via < ref[i * n + j]) ref[i * n + j] = via;
      }
    }
  }
  const OverlayPaths paths(m);
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = 0; j < n; ++j) {
      EXPECT_EQ(paths.delay(i, j), ref[static_cast<std::size_t>(i) * n + j])
          << i << " -> " << j;
    }
  }
}

TEST(Overlay, MetricSpaceNeedsNoDetours) {
  // Points on a line: delays are exact distances; no overlay path can beat
  // the direct edge.
  DelayMatrix m(4);
  const float pos[4] = {0.0f, 3.0f, 7.0f, 20.0f};
  for (HostId i = 0; i < 4; ++i) {
    for (HostId j = i + 1; j < 4; ++j) {
      m.set(i, j, std::abs(pos[i] - pos[j]));
    }
  }
  const OverlayPaths paths(m);
  for (HostId i = 0; i < 4; ++i) {
    for (HostId j = 0; j < 4; ++j) {
      if (i != j) EXPECT_FLOAT_EQ(paths.delay(i, j), m.at(i, j));
    }
  }
}

}  // namespace
}  // namespace tiv::delayspace
