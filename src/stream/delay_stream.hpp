// Online measurement ingestion — the mutable front end of the streaming
// TIV engine.
//
// The static analyzers (severity kernel, edge engine, detour router) all
// treat the DelayMatrix as an immutable snapshot; WangZN07's second half is
// about TIVs *over time* (the Fig. 10 three-node traces, Fig. 11 severity
// oscillation, the Figs. 20-25 ratio alerts over a live embedding). This
// header is the missing layer between the two: a DelayStream owns a mutable
// DelayMatrix, absorbs batches of raw (a, b, delay, timestamp) samples
// through per-edge smoothing estimators, and tracks exactly which hosts
// were perturbed since the last epoch commit so the incremental consumers
// (IncrementalSeverity, ShardStreamEngine in this directory) can repair
// their derived state in O(dirty * n) instead of rebuilding in O(n^2)/O(n^3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "obs/metrics.hpp"

namespace tiv::stream {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// One raw measurement. A finite delay_ms < 0 (conventionally
/// DelayMatrix::kMissing) reports a *lost* measurement: the edge's
/// estimator history is discarded and the matrix entry transitions to
/// missing — the measured->missing direction of churn the dynamic-neighbor
/// experiments exercise. Non-finite delays (NaN, +-inf) are rejected as
/// producer bugs and only counted.
struct DelaySample {
  HostId a = 0;
  HostId b = 0;
  float delay_ms = 0.0f;
  double timestamp = 0.0;  ///< seconds; per-edge stale samples are dropped
};

/// How raw samples of one edge are folded into its matrix estimate.
enum class SmoothingPolicy {
  kLatest,       ///< estimate = most recent sample
  kEwma,         ///< estimate = alpha * sample + (1 - alpha) * estimate
  kWindowedMin,  ///< estimate = min of the last `window` samples (the
                 ///< Vivaldi-style low-pass that rejects queueing spikes)
};

struct EstimatorParams {
  SmoothingPolicy policy = SmoothingPolicy::kLatest;
  float ewma_alpha = 0.25f;  ///< weight of the newest sample (kEwma)
  std::uint32_t window = 8;  ///< ring capacity (kWindowedMin), >= 1
};

/// Per-edge smoothing state. kLatest carries no history; kEwma one float;
/// kWindowedMin a fixed-capacity ring of the most recent samples. A
/// DelayStream materializes one lazily per edge on first sample and drops
/// it again on a loss report, so idle edges cost nothing.
class EdgeEstimator {
 public:
  explicit EdgeEstimator(const EstimatorParams& params);

  /// Folds one measured sample (>= 0) in and returns the new estimate.
  float update(float sample_ms);

  /// Current estimate; DelayMatrix::kMissing before the first update.
  float estimate() const { return estimate_; }

 private:
  EstimatorParams params_;
  float estimate_ = DelayMatrix::kMissing;
  std::vector<float> ring_;     ///< kWindowedMin only
  std::uint32_t ring_next_ = 0;
  std::uint32_t ring_count_ = 0;
};

/// Per-epoch ingestion accounting. A view: the stream maintains these as
/// cumulative obs registry metrics ("stream.samples_applied", ...) and
/// commit_epoch reports the delta since the previous commit, so every
/// count is kept exactly once (docs/OBSERVABILITY.md). Counts read zero
/// under TIV_OBS_DISABLE.
struct EpochStats {
  std::size_t samples_applied = 0;  ///< accepted into an estimator
  /// Rejection breakdown — which guard fired. The registry keeps the
  /// aggregate "stream.samples_rejected" as a second link over the same
  /// three counters, so dashboards keyed on the old name keep working.
  std::size_t rejected_self_pair = 0;  ///< a == b or an out-of-range host id
  std::size_t rejected_stale = 0;      ///< older than the edge's newest sample
  std::size_t rejected_nonfinite = 0;  ///< NaN / +-inf delay (producer bug)
  std::size_t edges_touched = 0;       ///< matrix-changing updates (an edge
                                       ///< re-updated in-epoch counts each time)
  std::size_t became_measured = 0;     ///< missing -> measured transitions
  std::size_t became_missing = 0;      ///< measured -> missing transitions

  /// Aggregate view over the rejection breakdown.
  std::size_t samples_rejected() const {
    return rejected_self_pair + rejected_stale + rejected_nonfinite;
  }
};

/// A sealed epoch: the sorted distinct hosts whose matrix rows changed,
/// plus the ingestion stats. This is the unit the incremental consumers
/// synchronize on.
struct Epoch {
  std::uint64_t index = 0;
  std::vector<HostId> dirty_hosts;  ///< ascending, distinct
  EpochStats stats;
};

/// Batched ingestion of delay samples into a mutable matrix.
///
/// Epoch model: ingest() any number of batches, then commit_epoch() to seal
/// the accumulated perturbation into an Epoch. A host enters the dirty set
/// only when an update actually changed its matrix row (a repeated
/// latest-sample of the identical value, or an EWMA that rounds to the same
/// float, stays clean), so steady-state traffic yields near-empty epochs.
///
/// Out-of-order protection: a sample older than the newest timestamp
/// already applied to its edge is rejected (counted, not applied) — the
/// arrival-order hazard of a real ingest fan-in.
class DelayStream {
 public:
  explicit DelayStream(DelayMatrix initial, EstimatorParams params = {});

  const DelayMatrix& matrix() const { return matrix_; }
  const EstimatorParams& estimator_params() const { return params_; }

  void ingest(const DelaySample& sample);
  void ingest(std::span<const DelaySample> batch);

  /// Hosts perturbed since the last commit (unsorted, distinct).
  std::size_t pending_dirty_hosts() const { return dirty_hosts_.size(); }
  /// Epochs sealed so far; the next commit returns index epochs_committed().
  std::uint64_t epochs_committed() const { return epoch_; }

  /// Seals the current epoch: returns the sorted dirty-host set and stats,
  /// then clears both for the next epoch.
  Epoch commit_epoch();

 private:
  static std::uint64_t edge_key(HostId i, HostId j) {
    if (i > j) std::swap(i, j);
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }
  void mark_dirty(HostId h);

  /// Cumulative ingestion counters, linked into the metrics registry under
  /// "stream.*". Heap-allocated so the stream stays movable while the
  /// registry links keep probing stable addresses.
  struct IngestCounters {
    obs::Counter samples_applied;
    obs::Counter rejected_self_pair;
    obs::Counter rejected_stale;
    obs::Counter rejected_nonfinite;
    obs::Counter edges_touched;
    obs::Counter became_measured;
    obs::Counter became_missing;
    std::vector<obs::MetricsRegistry::Link> links;
  };
  /// Current cumulative counter values as a stats struct.
  EpochStats cumulative_stats() const;

  DelayMatrix matrix_;
  EstimatorParams params_;
  std::unordered_map<std::uint64_t, EdgeEstimator> estimators_;
  std::unordered_map<std::uint64_t, double> last_timestamp_;
  std::vector<HostId> dirty_hosts_;       ///< distinct, insertion order
  std::vector<std::uint8_t> host_dirty_;  ///< membership bitmap for the above
  std::unique_ptr<IngestCounters> counters_;
  EpochStats committed_base_;  ///< cumulative totals at the last commit
  std::uint64_t epoch_ = 0;
};

}  // namespace tiv::stream
