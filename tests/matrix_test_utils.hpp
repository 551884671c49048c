// Shared test-matrix and epoch generators. One definition instead of a
// copy per test binary: a change to the delay range or missing-entry
// encoding must reach every suite at once. (Named without the test_ prefix so the tests/
// CMake glob does not turn it into a binary.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "stream/delay_stream.hpp"
#include "util/rng.hpp"

namespace tiv::test {

/// Ingests one sample as a one-sample batch.
inline void ingest_one(stream::DelayStream& stream,
                       const stream::DelaySample& sample) {
  stream.ingest(std::span<const stream::DelaySample>(&sample, 1));
}

/// Symmetric matrix of uniform-random RTTs in [1, 400) ms with an
/// independent per-pair missing probability.
inline delayspace::DelayMatrix random_matrix(delayspace::HostId n,
                                             double missing_fraction,
                                             std::uint64_t seed) {
  delayspace::DelayMatrix m(n);
  Rng rng(seed);
  for (delayspace::HostId i = 0; i < n; ++i) {
    for (delayspace::HostId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(missing_fraction)) continue;
      m.set(i, j, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
  }
  return m;
}

/// One epoch of samples, timestamped e, that changes several edges per
/// host: 1-4 hub hosts each re-measure 2-6 edges — to a random host, to
/// the id neighbours h - 1 and h + 1, to another hub (dirty-dirty edges),
/// or to the last host (the ragged last band of most tile grids). A
/// quarter of the samples report a loss (measured -> missing), and a third
/// of the rest are short, so they make new violating witnesses.
inline std::vector<stream::DelaySample> multi_edge_epoch(Rng& rng,
                                                         delayspace::HostId n,
                                                         int e) {
  using delayspace::HostId;
  std::vector<HostId> hubs(1 + rng.uniform_index(4));
  for (HostId& h : hubs) h = static_cast<HostId>(rng.uniform_index(n));
  std::vector<stream::DelaySample> batch;
  for (const HostId h : hubs) {
    const std::size_t edges = 2 + rng.uniform_index(5);
    for (std::size_t k = 0; k < edges; ++k) {
      HostId c = 0;
      switch (rng.uniform_index(5)) {
        case 0: c = h == 0 ? n - 1 : h - 1; break;
        case 1: c = h + 1 == n ? 0 : h + 1; break;
        case 2: c = hubs[rng.uniform_index(hubs.size())]; break;
        case 3: c = n - 1; break;
        default: c = static_cast<HostId>(rng.uniform_index(n)); break;
      }
      if (c == h) continue;
      float value = delayspace::DelayMatrix::kMissing;
      if (!rng.bernoulli(0.25)) {
        value = static_cast<float>(rng.bernoulli(0.33)
                                       ? rng.uniform(1.0, 20.0)
                                       : rng.uniform(1.0, 400.0));
      }
      batch.push_back({h, c, value, static_cast<double>(e)});
    }
  }
  return batch;
}

}  // namespace tiv::test
