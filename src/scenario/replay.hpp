// Trace replay — drives a DelayTrace through the live pipeline, epoch by
// epoch, maintaining the ground truth alongside and verifying that the
// incremental path stays bit-identical to direct ingestion at EVERY epoch.
//
// Per epoch the driver:
//   1. applies the truth stream to its ground-truth matrix and computes
//      the truth severities (all_severities on the instantaneous matrix —
//      the trace's definition of "truly TIV-violating");
//   2. ingests the sample stream into a DelayStream and commits the epoch
//      into the engine its caller hands it — either store of
//      stream::SeverityEngine, the in-memory IncrementalSeverity or the
//      out-of-core ShardStreamEngine (optionally under FaultInjector rot);
//   3. reads the engine's severities back in one all_severities pass,
//      recomputes the monitor matrix's severities from scratch and
//      bit-compares the two — the bit_mismatches == 0 contract that
//      bench_scenario's exit status and test_scenario enforce;
//   4. hands both (truth, monitor) pairs to the caller — typically a
//      QualityScorer (score.hpp).
//
// Progress is published as scenario.* registry metrics and scenario-*
// spans so profiles attribute replay cost per phase.
#pragma once

#include <cstdint>
#include <functional>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "scenario/trace.hpp"
#include "stream/severity_engine.hpp"

namespace tiv::scenario {

using core::SeverityMatrix;

struct ReplayConfig {
  /// Smoothing the monitor applies to the trace's noisy samples. Default
  /// mirrors the live monitor example: EWMA with alpha 0.3.
  stream::EstimatorParams estimator{
      .policy = stream::SmoothingPolicy::kEwma, .ewma_alpha = 0.3f};

  /// Recompute severities from scratch each epoch and bit-compare against
  /// the incremental path. Costs an O(n^3) kernel per epoch; disable only
  /// for throughput-oriented replays.
  bool verify_bit_identity = true;
};

class ReplayDriver {
 public:
  /// Everything the caller can observe about one replayed epoch. The
  /// references are valid only during the callback.
  struct EpochView {
    std::uint64_t epoch = 0;
    const DelayMatrix& truth;
    const SeverityMatrix& truth_severities;
    const DelayMatrix& monitor;             ///< DelayStream's mutated matrix
    const SeverityMatrix& monitor_severities;  ///< the engine's, read back
    std::size_t bit_mismatches = 0;         ///< this epoch (0 when verified)
    const stream::Epoch& committed;         ///< dirty hosts + ingest stats
  };
  using EpochCallback = std::function<void(const EpochView&)>;

  struct Result {
    std::size_t epochs = 0;
    std::size_t samples = 0;          ///< trace samples ingested
    std::size_t bit_mismatches = 0;   ///< summed over all epochs
    std::size_t edges_recomputed = 0; ///< incremental repair work
  };

  /// Validates trace.hosts == base.size() (throws std::invalid_argument).
  /// `base` and `trace` must outlive the driver.
  ReplayDriver(const DelayMatrix& base, const DelayTrace& trace,
               ReplayConfig config = {});

  /// Replays the whole trace through `engine`, which must be freshly built
  /// over the base matrix (throws std::invalid_argument on a size
  /// mismatch). Each call starts a fresh DelayStream from the base matrix
  /// and replays from epoch 0, so a new engine replays the trace again.
  /// The stream's matrix is the driver's own: a ShardStreamEngine heals a
  /// corrupt input tile from it inside an epoch, but not in the readback
  /// between epochs (no attached source).
  Result run(stream::SeverityEngine& engine,
             const EpochCallback& on_epoch = {});

 private:
  const DelayMatrix& base_;
  const DelayTrace& trace_;
  ReplayConfig config_;
};

}  // namespace tiv::scenario
