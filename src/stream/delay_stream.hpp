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
// were perturbed since the last epoch commit so the live severity engine
// (severity_engine.hpp in this directory, on either store) can repair its
// derived state in O(dirty * n) instead of rebuilding in O(n^2)/O(n^3).
//
// Estimator state is flat: one fixed-size slot per edge ever sampled (key,
// newest timestamp, policy state inline), in open-addressing tables split
// into kShards by the edge key's hash. A large batch is sorted into its
// shards on the calling thread and the shards are walked in parallel; an
// edge's samples all land in one shard, in batch order, and write only the
// edge's own two matrix cells, so the result is identical at any thread
// count. Memory scales with the edges seen, not with n^2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
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
/// producer bugs and only counted, as are non-finite timestamps.
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

/// Smoothing parameters, stored once per stream. DelayStream's
/// constructor throws std::invalid_argument outside the ranges below.
struct EstimatorParams {
  SmoothingPolicy policy = SmoothingPolicy::kLatest;
  float ewma_alpha = 0.25f;  ///< weight of the newest sample (kEwma), (0, 1]
  std::uint32_t window = 8;  ///< ring capacity (kWindowedMin), [1, 255]; it
                             ///< sets every edge's slot size
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
///
/// The "stream.*" registry counters advance once per batch (or per
/// single-sample ingest), after every sample in it has been applied.
class DelayStream {
 public:
  /// Throws std::invalid_argument on an unknown policy, a window outside
  /// [1, 255], or an ewma_alpha that is not finite and in (0, 1].
  explicit DelayStream(DelayMatrix initial, EstimatorParams params = {});

  const DelayMatrix& matrix() const { return matrix_; }
  const EstimatorParams& estimator_params() const { return params_; }

  void ingest(const DelaySample& sample);
  /// Applies the batch in order (per edge; edges are independent). Batches
  /// of kParallelMinSamples or more walk their shards on the thread pool.
  void ingest(std::span<const DelaySample> batch);

  /// Hosts perturbed since the last commit (distinct).
  std::size_t pending_dirty_hosts() const;
  /// Epochs sealed so far; the next commit returns index epochs_committed().
  std::uint64_t epochs_committed() const { return epoch_; }

  /// Seals the current epoch: returns the sorted dirty-host set and stats,
  /// then clears both for the next epoch.
  Epoch commit_epoch();

 private:
  /// Estimator tables; the top bits of the key's hash pick the shard.
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  /// Smaller batches walk their shards on the calling thread: pool
  /// dispatch costs more than applying them.
  static constexpr std::size_t kParallelMinSamples = 2048;

  /// Fixed head of an edge's slot; kWindowedMin's ring of `window` floats
  /// follows it inline.
  struct Slot {
    std::uint64_t key;     ///< edge_key; 0 (never a valid key) = empty
    double last_timestamp;
    float estimate;        ///< kEwma; kMissing until the first sample
    std::uint8_t ring_next;
    std::uint8_t ring_count;
  };
  struct FreeDeleter {
    void operator()(std::byte* p) const;
  };
  /// Samples applied and matrix changes made by one shard walk.
  struct Tally {
    std::size_t samples_applied = 0;
    std::size_t rejected_stale = 0;
    std::size_t edges_touched = 0;
    std::size_t became_measured = 0;
    std::size_t became_missing = 0;
  };
  /// One open-addressing table (linear probing, power-of-two capacity,
  /// load <= 3/4). Slots are never deleted: a loss report resets the
  /// edge's history in place and keeps its timestamp watermark.
  struct alignas(64) Shard {
    std::unique_ptr<std::byte[], FreeDeleter> slots;  ///< zeroed = empty
    std::size_t capacity = 0;
    std::size_t size = 0;
    Tally tally;
  };

  static std::uint64_t edge_key(HostId i, HostId j) {
    if (i > j) std::swap(i, j);
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }
  static std::uint64_t edge_hash(std::uint64_t key);
  /// Slot k of a slab. The slab comes from calloc and moves by memcpy,
  /// both of which create the Slot and ring objects implicitly.
  Slot* slot_at(std::byte* slab, std::size_t k) const {
    return std::launder(reinterpret_cast<Slot*>(slab + k * slot_bytes_));
  }

  /// Guards, counting sort, shard walks and the per-batch counter merge
  /// behind both ingest overloads (the "ingest" span is the caller's).
  void ingest_batch(std::span<const DelaySample> batch);
  /// Grows `shard` so `incoming` more edges fit without a rehash.
  void reserve(Shard& shard, std::size_t incoming) const;
  /// Applies `shard`'s samples, batch[*it] for it in [begin, end).
  void walk(Shard& shard, std::span<const DelaySample> batch,
            const std::uint32_t* begin, const std::uint32_t* end);
  /// Folds a measured sample into the slot's policy state.
  float update(Slot& slot, float sample_ms) const;
  /// Adds h to the dirty set; shard walks call this concurrently.
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
  std::size_t slot_bytes_ = 0;  ///< Slot plus the ring, 8-byte aligned
  std::vector<Shard> shards_;   ///< kShards tables
  std::vector<std::uint64_t> host_dirty_;  ///< dirty-host bitset, n bits
  /// Per-batch scratch of the counting sort: each sample's shard
  /// (kShards = rejected), then the admitted sample indices by shard.
  std::vector<std::uint8_t> sample_shard_;
  std::vector<std::uint32_t> order_;
  std::unique_ptr<IngestCounters> counters_;
  EpochStats committed_base_;  ///< cumulative totals at the last commit
  std::uint64_t epoch_ = 0;
};

}  // namespace tiv::stream
