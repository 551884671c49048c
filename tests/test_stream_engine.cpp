// Streaming TIV engine (src/stream/): ingestion semantics and the
// registry totals of every stream's epochs, dirty-epoch tracking,
// incremental view repair, and the headline contract, run on
// both stores of the live engine (the LiveEngine suite) — the maintained
// severities are *bit-identical* to a from-scratch
// TivAnalyzer::all_severities rebuild after every committed epoch, across
// randomized update sequences that include measured<->missing toggles and
// repeated same-edge updates within one epoch, and an out-of-contract
// epoch moves no row, tile or severity — and the exact epoch screen behind
// the repair (core/epoch_screen), checked against a brute-force oracle.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch_screen.hpp"
#include "core/severity.hpp"
#include "engine_harness.hpp"
#include "matrix_test_utils.hpp"
#include "reference/oracles.hpp"
#include "shard/tile_file.hpp"
#include "stream/delay_stream.hpp"
#include "stream/epoch_manifest.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::stream {
namespace {

using core::SeverityMatrix;
using core::TivAnalyzer;
using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using reference::EdgeEstimator;

// --- EdgeEstimator (the per-edge oracle) ----------------------------------------------------------

TEST(EdgeEstimator, LatestTracksMostRecentSample) {
  EstimatorParams p;
  p.policy = SmoothingPolicy::kLatest;
  EdgeEstimator est(p);
  EXPECT_EQ(est.estimate(), DelayMatrix::kMissing);
  EXPECT_FLOAT_EQ(est.update(10.0f), 10.0f);
  EXPECT_FLOAT_EQ(est.update(3.0f), 3.0f);
  EXPECT_FLOAT_EQ(est.estimate(), 3.0f);
}

TEST(EdgeEstimator, EwmaSeedsThenBlends) {
  EstimatorParams p;
  p.policy = SmoothingPolicy::kEwma;
  p.ewma_alpha = 0.5f;
  EdgeEstimator est(p);
  EXPECT_FLOAT_EQ(est.update(100.0f), 100.0f);  // first sample seeds
  EXPECT_FLOAT_EQ(est.update(50.0f), 75.0f);
  EXPECT_FLOAT_EQ(est.update(75.0f), 75.0f);
}

TEST(EdgeEstimator, WindowedMinEvictsOldSamples) {
  EstimatorParams p;
  p.policy = SmoothingPolicy::kWindowedMin;
  p.window = 3;
  EdgeEstimator est(p);
  EXPECT_FLOAT_EQ(est.update(30.0f), 30.0f);
  EXPECT_FLOAT_EQ(est.update(10.0f), 10.0f);  // min of {30, 10}
  EXPECT_FLOAT_EQ(est.update(20.0f), 10.0f);  // min of {30, 10, 20}
  EXPECT_FLOAT_EQ(est.update(25.0f), 10.0f);  // 30 evicted
  EXPECT_FLOAT_EQ(est.update(40.0f), 20.0f);  // 10 evicted
  EXPECT_FLOAT_EQ(est.update(50.0f), 25.0f);  // 20 evicted
}

// --- DelayStream ------------------------------------------------------------

TEST(DelayStream, AppliesSamplesSymmetricallyAndTracksDirtyHosts) {
  DelayStream stream(DelayMatrix(5));
  test::ingest_one(stream, {1, 3, 42.0f, 0.0});
  EXPECT_FLOAT_EQ(stream.matrix().at(1, 3), 42.0f);
  EXPECT_FLOAT_EQ(stream.matrix().at(3, 1), 42.0f);

  const Epoch ep = stream.commit_epoch();
  EXPECT_EQ(ep.index, 0u);
  EXPECT_EQ(ep.dirty_hosts, (std::vector<HostId>{1, 3}));
  EXPECT_EQ(ep.stats.samples_applied, 1u);
  EXPECT_EQ(ep.stats.became_measured, 1u);
  EXPECT_EQ(stream.epochs_committed(), 1u);
  // The commit cleared the dirty set.
  EXPECT_TRUE(stream.commit_epoch().dirty_hosts.empty());
}

TEST(DelayStream, IdenticalResampleStaysClean) {
  DelayStream stream(DelayMatrix(4));  // kLatest policy
  test::ingest_one(stream, {0, 1, 10.0f, 0.0});
  stream.commit_epoch();
  test::ingest_one(stream, {0, 1, 10.0f, 1.0});  // same value: matrix unchanged
  const Epoch ep = stream.commit_epoch();
  EXPECT_TRUE(ep.dirty_hosts.empty());
  EXPECT_EQ(ep.stats.samples_applied, 1u);
  EXPECT_EQ(ep.stats.edges_touched, 0u);
}

TEST(DelayStream, RejectsNonFiniteSamples) {
  DelayStream stream(DelayMatrix(4));
  constexpr float kInf = std::numeric_limits<float>::infinity();
  test::ingest_one(stream, {0, 1, 50.0f, 0.0});
  test::ingest_one(stream,
                   {0, 1, std::numeric_limits<float>::quiet_NaN(), 1.0});
  test::ingest_one(stream, {0, 1, kInf, 2.0});
  test::ingest_one(stream, {0, 1, -kInf, 3.0});
  const Epoch ep = stream.commit_epoch();
  EXPECT_EQ(ep.stats.rejected_nonfinite, 3u);
  EXPECT_EQ(ep.stats.rejected_self_pair, 0u);
  EXPECT_EQ(ep.stats.rejected_stale, 0u);
  EXPECT_EQ(ep.stats.samples_rejected(), 3u);
  EXPECT_FLOAT_EQ(stream.matrix().at(0, 1), 50.0f);  // untouched
  // Rejected samples must not advance the edge's timestamp watermark.
  test::ingest_one(stream, {0, 1, 60.0f, 0.5});
  EXPECT_FLOAT_EQ(stream.matrix().at(0, 1), 60.0f);
}

TEST(DelayStream, RejectsNonFiniteTimestamps) {
  // A NaN timestamp compares false with everything: stored as the edge's
  // watermark, it would let the stale sample after it through.
  DelayStream stream(DelayMatrix(4));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  test::ingest_one(stream, {0, 1, 10.0f, 10.0});
  test::ingest_one(stream,
                   {0, 1, 20.0f, std::numeric_limits<double>::quiet_NaN()});
  test::ingest_one(stream, {0, 1, 30.0f, 3.0});
  test::ingest_one(stream, {2, 3, 40.0f, kInf});
  test::ingest_one(stream, {2, 3, 50.0f, -kInf});
  const Epoch ep = stream.commit_epoch();
  EXPECT_EQ(ep.stats.samples_applied, 1u);
  EXPECT_EQ(ep.stats.rejected_nonfinite, 3u);
  EXPECT_EQ(ep.stats.rejected_stale, 1u);
  EXPECT_FLOAT_EQ(stream.matrix().at(0, 1), 10.0f);
  EXPECT_FALSE(stream.matrix().has(2, 3));
}

TEST(DelayStream, ValidatesEstimatorParams) {
  const auto make = [](SmoothingPolicy policy, float alpha,
                       std::uint32_t window) {
    DelayStream stream(DelayMatrix(3), EstimatorParams{policy, alpha, window});
  };
  for (const SmoothingPolicy policy :
       {SmoothingPolicy::kLatest, SmoothingPolicy::kEwma,
        SmoothingPolicy::kWindowedMin}) {
    EXPECT_NO_THROW(make(policy, 0.25f, 1));
    EXPECT_NO_THROW(make(policy, 0.25f, 255));
    EXPECT_NO_THROW(make(policy, 1.0f, 8));
    EXPECT_NO_THROW(make(policy, std::numeric_limits<float>::min(), 8));
    EXPECT_THROW(make(policy, 0.25f, 0), std::invalid_argument);
    EXPECT_THROW(make(policy, 0.25f, 256), std::invalid_argument);
    EXPECT_THROW(make(policy, 0.25f, 1u << 31), std::invalid_argument);
    for (const float alpha :
         {0.0f, -0.0f, -0.5f, std::nextafter(1.0f, 2.0f), 2.0f,
          std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity()}) {
      EXPECT_THROW(make(policy, alpha, 8), std::invalid_argument) << alpha;
    }
  }
  EXPECT_THROW(make(static_cast<SmoothingPolicy>(3), 0.25f, 8),
               std::invalid_argument);
  EXPECT_THROW(make(static_cast<SmoothingPolicy>(-1), 0.25f, 8),
               std::invalid_argument);
}

TEST(DelayStream, RejectsSelfPairsAndStaleTimestamps) {
  DelayStream stream(DelayMatrix(4));
  test::ingest_one(stream, {2, 2, 5.0f, 0.0});  // self pair
  test::ingest_one(stream, {0, 1, 10.0f, 5.0});
  test::ingest_one(stream, {0, 1, 99.0f, 4.0});  // older than applied
  test::ingest_one(stream, {0, 1, 20.0f, 5.0});  // equal timestamp is accepted
  const Epoch ep = stream.commit_epoch();
  EXPECT_EQ(ep.stats.rejected_self_pair, 1u);
  EXPECT_EQ(ep.stats.rejected_stale, 1u);
  EXPECT_EQ(ep.stats.rejected_nonfinite, 0u);
  EXPECT_EQ(ep.stats.samples_rejected(), 2u);
  EXPECT_EQ(ep.stats.samples_applied, 2u);
  EXPECT_FLOAT_EQ(stream.matrix().at(0, 1), 20.0f);
}

TEST(DelayStream, LossReportTransitionsToMissingAndClearsHistory) {
  EstimatorParams p;
  p.policy = SmoothingPolicy::kEwma;
  p.ewma_alpha = 0.5f;
  DelayStream stream(DelayMatrix(4), p);
  test::ingest_one(stream, {0, 1, 100.0f, 0.0});
  test::ingest_one(stream, {0, 1, DelayMatrix::kMissing, 1.0});
  EXPECT_FALSE(stream.matrix().has(0, 1));
  Epoch ep = stream.commit_epoch();
  EXPECT_EQ(ep.stats.became_missing, 1u);
  EXPECT_EQ(ep.dirty_hosts, (std::vector<HostId>{0, 1}));

  // Re-measurement after the outage seeds a fresh EWMA (no blending with
  // the pre-outage 100 ms).
  test::ingest_one(stream, {0, 1, 10.0f, 2.0});
  EXPECT_FLOAT_EQ(stream.matrix().at(0, 1), 10.0f);
  ep = stream.commit_epoch();
  EXPECT_EQ(ep.stats.became_measured, 1u);
}

TEST(DelayStream, MissingReportOnMissingEdgeStaysClean) {
  DelayStream stream(DelayMatrix(4));
  test::ingest_one(stream, {0, 1, DelayMatrix::kMissing, 0.0});
  const Epoch ep = stream.commit_epoch();
  EXPECT_TRUE(ep.dirty_hosts.empty());
  EXPECT_EQ(ep.stats.became_missing, 0u);
}

// --- DelayStream's registry counters ----------------------------------------

/// A batch mixing every sample kind: measurements, loss reports, self
/// pairs and out-of-range hosts, non-finite delays, and per-edge timestamp
/// inversions (stale samples).
std::vector<DelaySample> mixed_batch(HostId n, std::size_t count, Rng& rng,
                                     double t) {
  std::vector<DelaySample> batch;
  batch.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    DelaySample s{static_cast<HostId>(rng.uniform_index(n)),
                  static_cast<HostId>(rng.uniform_index(n + 1)),
                  static_cast<float>(rng.uniform(1.0, 400.0)),
                  t + rng.uniform(0.0, 1.0)};
    if (rng.bernoulli(0.1)) s.delay_ms = DelayMatrix::kMissing;
    if (rng.bernoulli(0.05)) {
      s.delay_ms = std::numeric_limits<float>::quiet_NaN();
    }
    batch.push_back(s);
  }
  return batch;
}

TEST(DelayStream, RegistryCountsAddUpOverStreamsAndOutliveThem) {
  // Two live streams add every epoch's stats to the one set of "stream.*"
  // counters, and a destroyed stream's counts stay in the totals. Batches
  // above and below the parallel threshold take both shard walks.
  set_parallel_thread_count(2);
  const obs::MetricsSnapshot base = obs::MetricsRegistry::instance().snapshot();
  Rng rng(0x5eed);
  EpochStats total;
  DelayStream a(test::random_matrix(64, 0.3, 11));
  {
    DelayStream b(test::random_matrix(64, 0.3, 12));
    for (int e = 0; e < 3; ++e) {
      for (DelayStream* s : {&a, &b}) {
        s->ingest(mixed_batch(64, e == 1 ? 3000 : 40, rng, e));
        test::add_stats(total, s->commit_epoch().stats);
      }
    }
    EXPECT_GT(total.rejected_stale, 0u);
    EXPECT_GT(total.rejected_self_pair, 0u);
    EXPECT_GT(total.rejected_nonfinite, 0u);
    EXPECT_GT(total.became_missing, 0u);
    test::expect_registry_stream_stats(base, total);
  }
  a.ingest(mixed_batch(64, 40, rng, 3));
  test::add_stats(total, a.commit_epoch().stats);
  test::expect_registry_stream_stats(base, total);
  set_parallel_thread_count(0);
}

// --- DelayStream against the per-edge oracle -------------------------------

/// DelayStream's rules applied one sample at a time over ordered maps and
/// one reference::EdgeEstimator per edge — the layout the flat shards
/// replaced.
class OracleStream {
 public:
  OracleStream(DelayMatrix initial, const EstimatorParams& params)
      : matrix_(std::move(initial)), params_(params) {}

  const DelayMatrix& matrix() const { return matrix_; }

  void ingest(const DelaySample& s) {
    const HostId n = matrix_.size();
    if (s.a == s.b || s.a >= n || s.b >= n) {
      ++stats_.rejected_self_pair;
      return;
    }
    if (!std::isfinite(s.delay_ms) || !std::isfinite(s.timestamp)) {
      ++stats_.rejected_nonfinite;
      return;
    }
    const auto key = std::minmax(s.a, s.b);
    const auto [ts, first] = last_timestamp_.try_emplace(key, s.timestamp);
    if (!first) {
      if (s.timestamp < ts->second) {
        ++stats_.rejected_stale;
        return;
      }
      ts->second = s.timestamp;
    }
    ++stats_.samples_applied;
    const float old = matrix_.at(s.a, s.b);
    if (s.delay_ms < 0.0f) {
      estimators_.erase(key);
      if (old >= 0.0f) {
        matrix_.set_missing(s.a, s.b);
        ++stats_.became_missing;
        touch(s.a, s.b);
      }
      return;
    }
    const float estimate =
        estimators_.try_emplace(key, params_).first->second.update(s.delay_ms);
    if (old < 0.0f) ++stats_.became_measured;
    if (old < 0.0f || estimate != old) {
      matrix_.set(s.a, s.b, estimate);
      touch(s.a, s.b);
    }
  }

  Epoch commit() {
    Epoch out;
    out.dirty_hosts.assign(dirty_.begin(), dirty_.end());
    out.stats = stats_;
    dirty_.clear();
    stats_ = {};
    return out;
  }

 private:
  void touch(HostId a, HostId b) {
    ++stats_.edges_touched;
    dirty_.insert(a);
    dirty_.insert(b);
  }

  DelayMatrix matrix_;
  EstimatorParams params_;
  std::map<std::pair<HostId, HostId>, EdgeEstimator> estimators_;
  std::map<std::pair<HostId, HostId>, double> last_timestamp_;
  std::set<HostId> dirty_;
  EpochStats stats_;
};

::testing::AssertionResult matrices_bytes_equal(const DelayMatrix& got,
                                                const DelayMatrix& want) {
  for (HostId i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.row(i).data(), want.row(i).data(),
                    got.size() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::size_t> stats_fields(const EpochStats& s) {
  return {s.samples_applied, s.rejected_self_pair, s.rejected_stale,
          s.rejected_nonfinite, s.edges_touched, s.became_measured,
          s.became_missing};
}

/// One random sample over n hosts: mostly measurements of either
/// orientation, with loss reports, out-of-range and self pairs, non-finite
/// delays and timestamps, and timestamps behind, at and ahead of `t`.
DelaySample random_sample(Rng& rng, HostId n, double t) {
  constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DelaySample s;
  s.a = static_cast<HostId>(rng.uniform_index(n));
  s.b = static_cast<HostId>(rng.uniform_index(n));
  s.delay_ms = static_cast<float>(rng.uniform(1.0, 400.0));
  s.timestamp = t + 0.5 * static_cast<double>(rng.uniform_index(3)) - 0.5;
  switch (rng.uniform_index(40)) {
    case 0: s.b = s.a; break;
    case 1: s.a = n + static_cast<HostId>(rng.uniform_index(3)); break;
    case 2: s.delay_ms = kNanF; break;
    case 3: s.delay_ms = -std::numeric_limits<float>::infinity(); break;
    case 4: s.timestamp = kNan; break;
    case 5: s.timestamp = rng.bernoulli(0.5) ? kInf : -kInf; break;
    case 6: case 7: case 8: case 9: s.delay_ms = DelayMatrix::kMissing; break;
    case 10: s.delay_ms = -3.0f; break;  // any finite negative is a loss
    case 11: s.timestamp = t - 5.0; break;
    default: break;
  }
  return s;
}

TEST(DelayStream, MatchesPerEdgeOracleAtAnyBatchSizeAndThreadCount) {
  constexpr HostId kN = 37;  // few edges, so most samples revisit one
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_thread_count(threads);
    for (const SmoothingPolicy policy :
         {SmoothingPolicy::kLatest, SmoothingPolicy::kEwma,
          SmoothingPolicy::kWindowedMin}) {
      for (const std::uint32_t window : {1u, 8u}) {
        const EstimatorParams params{policy, 0.3f, window};
        const std::uint64_t seed = 1000 * threads + 10 * window +
                                   static_cast<std::uint64_t>(policy);
        const DelayMatrix initial = test::random_matrix(kN, 0.3, seed);
        DelayStream stream(initial, params);
        OracleStream oracle(initial, params);
        Rng rng(seed);
        for (int e = 0; e < 12; ++e) {
          // Batches on both sides of the inline cutoff (2048 samples).
          for (int b = 0; b < 2; ++b) {
            const std::size_t size = rng.bernoulli(0.5)
                                         ? 1 + rng.uniform_index(40)
                                         : 2560 + rng.uniform_index(2048);
            std::vector<DelaySample> batch;
            for (std::size_t k = 0; k < size; ++k) {
              batch.push_back(random_sample(rng, kN, double(e)));
            }
            stream.ingest(batch);
            for (const DelaySample& s : batch) oracle.ingest(s);
          }
          const Epoch got = stream.commit_epoch();
          const Epoch want = oracle.commit();
          const auto where = ::testing::Message()
                             << "threads " << threads << " policy "
                             << static_cast<int>(policy) << " window "
                             << window << " epoch " << e;
          ASSERT_TRUE(matrices_bytes_equal(stream.matrix(), oracle.matrix()))
              << where;
          ASSERT_EQ(got.dirty_hosts, want.dirty_hosts) << where;
          ASSERT_EQ(stats_fields(got.stats), stats_fields(want.stats)) << where;
        }
      }
    }
  }
  set_parallel_thread_count(0);
}

// --- IncrementalSeverity: packed-view repair --------------------------------

/// Packed views agree byte-for-byte: delay rows over the full padded
/// stride, and all mask words.
void expect_views_identical(const DelayMatrixView& got,
                            const DelayMatrixView& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.stride(), want.stride());
  ASSERT_EQ(got.mask_words(), want.mask_words());
  for (HostId i = 0; i < got.size(); ++i) {
    const float* gr = got.row(i);
    const float* wr = want.row(i);
    for (std::size_t b = 0; b < got.stride(); ++b) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(gr[b]),
                std::bit_cast<std::uint32_t>(wr[b]))
          << "row " << i << " col " << b;
    }
    for (std::size_t w = 0; w < got.mask_words(); ++w) {
      ASSERT_EQ(got.mask_row(i)[w], want.mask_row(i)[w]) << "row " << i;
    }
  }
}

TEST(IncrementalSeverity, DirtyRowViewRepackMatchesFreshBuild) {
  for (const double missing : {0.0, 0.3, 0.9}) {
    DelayMatrix m = test::random_matrix(70, missing, 91);  // multi-word masks
    IncrementalSeverity inc(m);
    Rng rng(7);
    for (int round = 0; round < 5; ++round) {
      std::vector<HostId> dirty;
      std::vector<std::uint8_t> is_dirty(m.size(), 0);
      for (int u = 0; u < 6; ++u) {
        const auto a = static_cast<HostId>(rng.uniform_index(m.size()));
        const auto b = static_cast<HostId>(rng.uniform_index(m.size()));
        if (a == b) continue;
        if (rng.bernoulli(0.25)) {
          m.set_missing(a, b);
        } else {
          m.set(a, b, static_cast<float>(rng.uniform(1.0, 400.0)));
        }
        for (const HostId h : {a, b}) {
          if (!is_dirty[h]) {
            is_dirty[h] = 1;
            dirty.push_back(h);
          }
        }
      }
      std::sort(dirty.begin(), dirty.end());
      EXPECT_EQ(inc.apply_epoch(m, dirty).rows_repacked, dirty.size());
      expect_views_identical(inc.view(), DelayMatrixView(m));
    }
  }
}

// --- The live engine on both stores -----------------------------------------

/// The in-memory store: its view and severity matrix.
test::Store memory_store() {
  return {"memory",
          [](const DelayMatrix& m) -> std::unique_ptr<SeverityEngine> {
            return std::make_unique<IncrementalSeverity>(m);
          },
          [](SeverityEngine& engine) {
            const auto& inc = static_cast<const IncrementalSeverity&>(engine);
            const DelayMatrixView& v = inc.view();
            std::string bytes;
            const auto append = [&](const void* p, std::size_t len) {
              bytes.append(static_cast<const char*>(p), len);
            };
            for (HostId i = 0; i < v.size(); ++i) {
              append(v.row(i), v.stride() * sizeof(float));
              append(v.mask_row(i), v.mask_words() * sizeof(std::uint64_t));
              for (HostId j = 0; j < v.size(); ++j) {
                const float s = inc.severities().at(i, j);
                append(&s, sizeof s);
              }
            }
            return bytes;
          },
          /*screened=*/false};
}

/// The tile store: 16-wide tiles (so most n here leave a ragged last
/// band) under budgets of a few tiles, far below the tile grids; its state
/// is its two store files and the epoch journal.
test::Store tile_store() {
  return {"tiles",
          [](const DelayMatrix& m) -> std::unique_ptr<SeverityEngine> {
            ShardStreamConfig cfg;
            cfg.tile_dim = 16;
            cfg.input_budget_bytes = 10 * shard::tile_size_bytes(16);
            cfg.output_budget_bytes = 4 * shard::tile_size_bytes(16);
            return std::make_unique<ShardStreamEngine>(m, cfg);
          },
          [](SeverityEngine& engine) {
            const auto& tiles = static_cast<const ShardStreamEngine&>(engine);
            return test::file_bytes(tiles.input_path()) +
                   test::file_bytes(tiles.sink_path()) +
                   test::file_bytes(EpochManifest::path_for(tiles.sink_path()));
          },
          /*screened=*/true};
}

/// Every case runs on both stores at two pool threads, checked against a
/// from-scratch all_severities (tests/engine_harness.hpp).
class LiveEngine : public ::testing::TestWithParam<test::Store> {
 protected:
  void SetUp() override { set_parallel_thread_count(2); }
  void TearDown() override { set_parallel_thread_count(0); }

  /// `epochs` randomized epochs over a random n-host matrix.
  static void replay(HostId n, double missing, std::uint64_t seed, int epochs,
                     SmoothingPolicy policy = SmoothingPolicy::kLatest) {
    EstimatorParams params;
    params.policy = policy;
    params.window = 3;
    test::expect_epochs_match(
        GetParam(), test::random_matrix(n, missing, seed),
        test::random_epochs(n, seed ^ 0xabcdu, epochs),
        "n=" + std::to_string(n) + " missing=" + std::to_string(missing) +
            " seed=" + std::to_string(seed),
        params);
  }
};

INSTANTIATE_TEST_SUITE_P(Stores, LiveEngine,
                         ::testing::Values(memory_store(), tile_store()),
                         [](const auto& info) { return info.param.name; });

TEST_P(LiveEngine, BitIdenticalTinyMatrices) {
  // n < 8: every density x seed, several epochs — small enough that edge
  // cases (empty witness sets, fully-missing rows, one ragged tile pair)
  // all occur.
  for (const HostId n : {4, 5, 7}) {
    for (const double missing : {0.0, 0.3, 0.9}) {
      for (const std::uint64_t seed : {1ull, 2ull}) replay(n, missing, seed, 6);
    }
  }
}

TEST_P(LiveEngine, BitIdenticalAcrossPolicies) {
  for (const auto policy :
       {SmoothingPolicy::kLatest, SmoothingPolicy::kEwma,
        SmoothingPolicy::kWindowedMin}) {
    replay(6, 0.3, 11, 5, policy);
  }
}

TEST_P(LiveEngine, BitIdenticalMultiLaneMatrix) {
  // n past one mask word / several padding lanes: the packed stride and
  // multi-word masks on the incremental path.
  replay(70, 0.3, 23, 4, SmoothingPolicy::kEwma);
}

TEST_P(LiveEngine, BitIdenticalNonDividingTileSizes) {
  // 70 = 4*16 + 6 and 37 = 2*16 + 5: ragged last bands, multi-band dirty
  // sets, eviction under the tile store's budgets.
  replay(70, 0.3, 41, 4);
  replay(37, 0.0, 42, 4);
}

TEST_P(LiveEngine, BitIdenticalDenseAndMostlyMissing) {
  replay(48, 0.0, 43, 4);
  replay(48, 0.9, 44, 4);
}

TEST_P(LiveEngine, BitIdenticalOverMultiEdgeEpochs) {
  // Several changed edges per host, dirty-dirty edges, loss toggles,
  // id-neighbour edges and the last host (a ragged band) every epoch.
  const HostId n = 75;
  for (const double missing : {0.0, 0.3}) {
    Rng rng(32);
    std::vector<std::vector<DelaySample>> epochs;
    for (int e = 0; e < 8; ++e) {
      epochs.push_back(test::multi_edge_epoch(rng, n, e));
    }
    test::expect_epochs_match(GetParam(), test::random_matrix(n, missing, 31),
                              epochs,
                              "multi-edge missing=" + std::to_string(missing));
  }
}

TEST_P(LiveEngine, EdgeToggleMeasuredMissingMeasured) {
  // The toggled edge and its incident edges follow the rebuild through
  // both transitions; an unmeasured edge reads 0.
  test::expect_epochs_match(GetParam(), test::random_matrix(6, 0.0, 5),
                            {{{0, 1, DelayMatrix::kMissing, 0.0}},
                             {{0, 1, 250.0f, 0.0}}},
                            "toggle");
}

TEST_P(LiveEngine, CleanEpochRecomputesNothing) {
  const DelayMatrix m = test::random_matrix(24, 0.2, 3);
  const auto engine = GetParam().make(m);
  const std::string before = GetParam().state(*engine);
  const auto stats = engine->apply_epoch(m, std::vector<HostId>{});
  EXPECT_EQ(stats.rows_repacked, 0u);
  EXPECT_EQ(stats.input_tiles_repacked, 0u);
  EXPECT_EQ(stats.severity_tiles_committed, 0u);
  EXPECT_EQ(stats.edges_changed, 0u);
  EXPECT_EQ(stats.edges_recomputed, 0u);
  EXPECT_EQ(engine->epochs_applied(), 0u);
  EXPECT_TRUE(GetParam().state(*engine) == before);
}

/// Applies (matrix, hosts), which must throw std::invalid_argument before
/// any row, tile or severity of `engine` moves.
void expect_rejected_untouched(SeverityEngine& engine, const DelayMatrix& m,
                               const std::vector<HostId>& hosts) {
  const std::string before = LiveEngine::GetParam().state(engine);
  EXPECT_THROW(engine.apply_epoch(m, hosts), std::invalid_argument)
      << "n=" << m.size() << " hosts " << ::testing::PrintToString(hosts);
  EXPECT_TRUE(LiveEngine::GetParam().state(engine) == before)
      << "state moved: n=" << m.size() << " hosts "
      << ::testing::PrintToString(hosts);
  EXPECT_EQ(engine.epochs_applied(), 0u);
}

TEST_P(LiveEngine, MalformedDirtyHostListsAreRejectedUntouched) {
  const HostId n = 40;
  const DelayMatrix m = test::random_matrix(n, 0.2, 91);
  const auto engine = GetParam().make(m);
  for (const std::vector<HostId>& hosts :
       std::vector<std::vector<HostId>>{
           {5, 3}, {3, 3}, {n}, {1, n + 7}, {2, 9, 9, 30}}) {
    expect_rejected_untouched(*engine, m, hosts);
  }
}

TEST_P(LiveEngine, ChangeOutsideDirtyHostsIsRejectedUntouched) {
  // Entry (3, 17) changes, but the host list leaves 17 (or 3) out: the
  // screen's diff throws before any state moves, and the corrected epoch
  // applies afterwards — its diff still sees the pre-epoch rows.
  const DelayMatrix original = test::random_matrix(40, 0.2, 17);
  const auto engine = GetParam().make(original);
  DelayMatrix m = original;
  m.set(3, 17, 5.0f);
  for (const std::vector<HostId>& hosts :
       {std::vector<HostId>{3}, std::vector<HostId>{17},
        std::vector<HostId>{2, 3}, std::vector<HostId>{3, 20}}) {
    expect_rejected_untouched(*engine, m, hosts);
  }
  EXPECT_EQ(engine->apply_epoch(m, std::vector<HostId>{3, 17}).edges_changed,
            1u);
  EXPECT_TRUE(test::engine_matches(*engine, TivAnalyzer(m).all_severities()));
}

TEST_P(LiveEngine, MatrixSizeChangeIsRejectedUntouched) {
  // A 10-host engine handed a larger matrix (hosts in range of the new
  // matrix only, and in range of both) and a smaller one: the size check
  // throws before any row is read.
  const DelayMatrix m = test::random_matrix(10, 0.1, 53);
  const auto engine = GetParam().make(m);
  expect_rejected_untouched(*engine, test::random_matrix(40, 0.1, 54), {30, 35});
  expect_rejected_untouched(*engine, test::random_matrix(40, 0.1, 54), {1, 2});
  expect_rejected_untouched(*engine, test::random_matrix(6, 0.1, 55), {1, 2});
  DelayMatrix next = m;
  next.set(1, 2, 7.0f);
  engine->apply_epoch(next, std::vector<HostId>{1, 2});
  EXPECT_TRUE(test::engine_matches(*engine, TivAnalyzer(next).all_severities()));
}

TEST_P(LiveEngine, OutOfRangeReadsAreRejected) {
  // n = 37 leaves the tile store's last band 11 hosts of padding (37..47
  // with 16-wide tiles). A host at or past size() — padding included — and
  // a row buffer of any size but size() throw on both stores, before
  // anything is read or written.
  const HostId n = 37;
  const DelayMatrix m = test::random_matrix(n, 0.2, 57);
  const auto engine = GetParam().make(m);
  std::vector<float> row(n);
  for (const HostId bad : {n, n + 5, HostId{3 * 16 - 1}, n + 1000}) {
    EXPECT_THROW(engine->severity(bad, 0), std::out_of_range) << bad;
    EXPECT_THROW(engine->severity(0, bad), std::out_of_range) << bad;
    EXPECT_THROW(engine->severity_row(bad, row), std::out_of_range) << bad;
  }
  for (const std::size_t size : {std::size_t{0}, std::size_t{n - 1},
                                 std::size_t{n + 1}, std::size_t{3 * 16}}) {
    std::vector<float> out(size, -1.0f);
    EXPECT_THROW(engine->severity_row(0, out), std::invalid_argument) << size;
    for (const float v : out) EXPECT_EQ(v, -1.0f);
    SeverityMatrix all(static_cast<HostId>(size));
    EXPECT_THROW(engine->all_severities(all), std::invalid_argument) << size;
  }
  // The last host still reads, by row and by point.
  engine->severity_row(n - 1, row);
  for (HostId b = 0; b < n; ++b) EXPECT_EQ(engine->severity(n - 1, b), row[b]);
  EXPECT_TRUE(test::engine_matches(*engine, TivAnalyzer(m).all_severities()));
}

TEST_P(LiveEngine, WholeScanMatchesRowReadsOnRaggedSizes) {
  // 37 = 2*16 + 5 and 70 = 4*16 + 6: the tile store's last band is ragged.
  // all_severities walks each tile once; severity_row reads a row segment
  // per tile — the two must return the same bits, after epochs too.
  for (const HostId n : {HostId{37}, HostId{70}}) {
    DelayStream stream(test::random_matrix(n, 0.2, 58 + n));
    const auto engine = GetParam().make(stream.matrix());
    for (const auto& batch : test::random_epochs(n, 59 + n, 2)) {
      stream.ingest(batch);
      engine->apply_epoch(stream);
    }
    SeverityMatrix all(n);
    engine->all_severities(all);
    std::vector<float> row(n);
    for (HostId a = 0; a < n; ++a) {
      engine->severity_row(a, row);
      for (HostId b = 0; b < n; ++b) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(all.at(a, b)),
                  std::bit_cast<std::uint32_t>(row[b]))
            << "n=" << n << " (" << a << ", " << b << ")";
      }
    }
    EXPECT_TRUE(test::engine_matches(
        *engine, TivAnalyzer(stream.matrix()).all_severities()));
  }
}

// --- The epoch screen --------------------------------------------------------

/// Screens the epoch from `before` to `after` as IncrementalSeverity does:
/// pre-epoch rows from a view of `before`.
core::EpochEdges screen_epoch(const DelayMatrix& before,
                              const DelayMatrix& after,
                              std::span<const HostId> dirty) {
  const DelayMatrixView old_view(before);
  core::EpochScreen screen;
  screen.begin(after, dirty);
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    screen.diff(i, 0, old_view.row(dirty[i]), after.size());
  }
  core::EpochEdges edges;
  screen.flag(edges);
  return edges;
}

/// The flagged edges as ascending (min, max) pairs.
std::vector<std::pair<HostId, HostId>> flagged_pairs(
    const core::EpochEdges& edges, std::span<const HostId> dirty) {
  std::vector<std::pair<HostId, HostId>> pairs;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    edges.for_each_in_row(i, 0, edges.size(), [&](HostId c) {
      pairs.emplace_back(std::min(dirty[i], c), std::max(dirty[i], c));
    });
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(EpochScreen, FlagsExactlyTheBruteForceReachableEdges) {
  // The screen equals the scalar definition edge for edge, and it is
  // sound: every edge whose all_severities bits move is flagged.
  for (const HostId n : {37u, 70u}) {
    for (const double missing : {0.0, 0.3}) {
      DelayStream stream(test::random_matrix(n, missing, 41 + n));
      Rng rng(42);
      for (int e = 0; e < 6; ++e) {
        const DelayMatrix before = stream.matrix();
        stream.ingest(test::multi_edge_epoch(rng, n, e));
        const Epoch epoch = stream.commit_epoch();
        const DelayMatrix& after = stream.matrix();
        const core::EpochEdges edges =
            screen_epoch(before, after, epoch.dirty_hosts);
        const auto flagged = flagged_pairs(edges, epoch.dirty_hosts);
        EXPECT_EQ(flagged, reference::reachable_edges_scalar(before, after))
            << "n=" << n << " missing=" << missing << " epoch=" << e;

        const SeverityMatrix sb = TivAnalyzer(before).all_severities();
        const SeverityMatrix sa = TivAnalyzer(after).all_severities();
        for (HostId a = 0; a < n; ++a) {
          for (HostId c = a + 1; c < n; ++c) {
            if (std::bit_cast<std::uint32_t>(sb.at(a, c)) ==
                std::bit_cast<std::uint32_t>(sa.at(a, c))) {
              continue;
            }
            EXPECT_TRUE(std::binary_search(flagged.begin(), flagged.end(),
                                           std::pair{a, c}))
                << "severity (" << a << ", " << c << ") changed unflagged, n="
                << n << " epoch=" << e;
          }
        }
      }
    }
  }
}

TEST(EpochScreen, FlagAllIsEveryIncidentEdgeOnce) {
  const HostId n = 70;
  const std::vector<HostId> dirty = {0, 5, 63, 64, 69};
  core::EpochEdges edges;
  edges.reset(dirty, n);
  edges.flag_all();
  const auto pairs = flagged_pairs(edges, dirty);
  EXPECT_EQ(pairs.size(), dirty.size() * (n - 1) - dirty.size() *
                                                      (dirty.size() - 1) / 2);
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  for (const auto& [a, c] : pairs) EXPECT_NE(a, c);
}

}  // namespace
}  // namespace tiv::stream
