// The live severity engine's shared test harness (stream/severity_engine):
// one randomized bit-identity check that runs on either store, against a
// from-scratch TivAnalyzer::all_severities rather than against the other
// store. (Named without the test_ prefix so the tests/ CMake glob does not
// turn it into a binary.)
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "reference/oracles.hpp"
#include "stream/delay_stream.hpp"
#include "stream/severity_engine.hpp"
#include "util/rng.hpp"

namespace tiv::test {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// The engine's severities, read through severity_row, agree bit for bit
/// with `want` on every cell, unmeasured pairs and the diagonal included.
inline ::testing::AssertionResult engine_matches(
    stream::SeverityEngine& engine, const core::SeverityMatrix& want) {
  const HostId n = engine.size();
  if (want.size() != n) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  std::vector<float> row(n);
  for (HostId a = 0; a < n; ++a) {
    engine.severity_row(a, row);
    for (HostId b = 0; b < n; ++b) {
      const auto g = std::bit_cast<std::uint32_t>(row[b]);
      const auto w = std::bit_cast<std::uint32_t>(want.at(a, b));
      if (g != w) {
        return ::testing::AssertionFailure()
               << "severity (" << a << ", " << b << "): bits " << g
               << " != " << w << " (" << row[b] << " vs " << want.at(a, b)
               << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The whole file at `path` (empty when it does not exist).
inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A store under test.
struct Store {
  std::string name;
  /// Builds an engine of this store over `m`.
  std::function<std::unique_ptr<stream::SeverityEngine>(const DelayMatrix& m)>
      make;
  /// The bytes of every row, tile and severity the engine holds — equal
  /// before and after a call that must move nothing.
  std::function<std::string(stream::SeverityEngine& engine)> state;
  /// Recomputes exactly the screen's flags; otherwise every edge incident
  /// to a dirty host.
  bool screened = false;
};

/// `count` randomized epochs over n hosts, epoch e timestamped e: 1..2n
/// value updates, a fifth of them losses (measured -> missing), and half
/// the time a same-edge re-update within the epoch (the estimator folds
/// both samples, the host is dirtied once).
inline std::vector<std::vector<stream::DelaySample>> random_epochs(
    HostId n, std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::vector<stream::DelaySample>> epochs(count);
  for (int e = 0; e < count; ++e) {
    const std::size_t updates = 1 + rng.uniform_index(2 * n);
    for (std::size_t u = 0; u < updates; ++u) {
      const auto a = static_cast<HostId>(rng.uniform_index(n));
      const auto b = static_cast<HostId>(rng.uniform_index(n));
      if (a == b) continue;
      const float value =
          rng.bernoulli(0.2) ? DelayMatrix::kMissing
                             : static_cast<float>(rng.uniform(1.0, 400.0));
      epochs[e].push_back({a, b, value, double(e)});
      if (u == 0 && rng.bernoulli(0.5)) {
        epochs[e].push_back(
            {a, b, static_cast<float>(rng.uniform(1.0, 400.0)), double(e)});
      }
    }
  }
  return epochs;
}

/// The one harness. Feeds `epochs` (one sample batch each, timestamped by
/// epoch) through `stream` into `engine`, built over the stream's matrix,
/// and asserts after every epoch that
///   - the engine's severities equal a from-scratch all_severities of the
///     mutated matrix bit for bit,
///   - it counted the epoch and updated rows or tiles iff a host was dirty,
///   - edges_changed counts the entries the epoch changed, and
///   - edges_recomputed is the brute-force reachable set when `screened`,
///     else every edge incident to a dirty host.
inline void expect_epochs_match(
    stream::SeverityEngine& engine, stream::DelayStream& stream,
    const std::vector<std::vector<stream::DelaySample>>& epochs,
    bool screened, const std::string& label) {
  const HostId n = stream.matrix().size();
  ASSERT_TRUE(engine_matches(
      engine, core::TivAnalyzer(stream.matrix()).all_severities()))
      << label << " initial build";
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const DelayMatrix before = stream.matrix();
    for (stream::DelaySample s : epochs[e]) {
      s.timestamp = static_cast<double>(e);
      stream.ingest(s);
    }
    const stream::Epoch epoch = stream.commit_epoch();
    const DelayMatrix& after = stream.matrix();
    const std::uint64_t applied = engine.epochs_applied();
    const auto stats = engine.apply_epoch(after, epoch.dirty_hosts);
    EXPECT_EQ(engine.epochs_applied(),
              applied + (epoch.dirty_hosts.empty() ? 0 : 1));
    // Some rows or tiles moved iff a host was dirty.
    EXPECT_EQ(stats.rows_repacked + stats.input_tiles_repacked > 0,
              !epoch.dirty_hosts.empty())
        << label << " epoch " << e;
    std::size_t changed = 0;
    for (HostId a = 0; a < n; ++a) {
      for (HostId c = a + 1; c < n; ++c) {
        changed += before.at(a, c) != after.at(a, c);
      }
    }
    EXPECT_EQ(stats.edges_changed, changed) << label << " epoch " << e;
    const std::size_t h = epoch.dirty_hosts.size();
    EXPECT_EQ(stats.edges_recomputed,
              screened ? reference::reachable_edges_scalar(before, after).size()
                       : h * (n - 1) - h * (h - 1) / 2)
        << label << " epoch " << e;
    ASSERT_TRUE(
        engine_matches(engine, core::TivAnalyzer(after).all_severities()))
        << label << " epoch " << e;
  }
}

/// expect_epochs_match over a fresh stream (estimator `params`) and a fresh
/// engine of `store`, both over `initial`.
inline void expect_epochs_match(
    const Store& store, DelayMatrix initial,
    const std::vector<std::vector<stream::DelaySample>>& epochs,
    const std::string& label, stream::EstimatorParams params = {}) {
  stream::DelayStream stream(std::move(initial), params);
  const auto engine = store.make(stream.matrix());
  expect_epochs_match(*engine, stream, epochs, store.screened,
                      store.name + " " + label);
}

}  // namespace tiv::test
