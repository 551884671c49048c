// Ground-truthed delay traces — the scenario observatory's workload unit
// (docs/OBSERVABILITY.md, "Quality observatory").
//
// The streaming benches drive the live pipeline with synthetic square-wave
// churn only; the paper's operational claims (Figs. 20/21/24/25) are about
// *detection quality* under realistic dynamics. A DelayTrace fixes that
// gap: a compact, versioned, epoch-structured recording of a dynamic delay
// space that carries TWO event streams per epoch:
//
//   truth    the instantaneous ground-truth delay of the perturbed edges
//            (delay < 0 = the path is genuinely down). Replaying only the
//            truth stream onto a copy of the base matrix reconstructs the
//            exact matrix the network "really had" at every epoch — the
//            matrix whose all_severities defines which edges are truly
//            TIV-violating (the ground truth the quality scorer grades
//            against).
//   samples  what the monitor's probes measured: the truth value distorted
//            by the generator's measurement-noise model, plus loss reports
//            where probing a downed path timed out. This stream feeds
//            DelayStream exactly like live traffic.
//
// The split is what makes detection quality a real observable: the monitor
// sees noisy samples through smoothing estimators and epoch-grained
// commits, the scorer sees the noiseless truth, and precision/recall/
// time-to-detect measure the gap between them.
//
// On-disk format (little-endian, shard::checksum64 trailer over everything
// before it, following stream::EpochManifest):
//
//   [magic "TIVTRCE2"][u32 hosts][u64 seed][u32 family_len][family bytes]
//   [u32 epoch_count]
//   per epoch: [u32 truth_count][u32 sample_count]
//              [truth events...][sample events...]
//   per event: [u32 a][u32 b][f32 delay_ms][f64 timestamp]
//   [u64 checksum64]
//
// Unlike the epoch manifest — where a torn trailer means "nothing was
// mutated yet, report clean" — a trace is *input data*: a file that fails
// its checksum must be rejected loudly (TraceFormatError), never replayed
// as a silently truncated workload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "stream/delay_stream.hpp"

namespace tiv::scenario {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// A trace file whose bytes cannot be trusted or parsed: bad magic, torn
/// trailer, truncated body, or counts that overrun the file.
struct TraceFormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One epoch of trace events. Both streams reuse stream::DelaySample — a
/// truth event's timestamp is the epoch index (informational only).
struct TraceEpoch {
  /// Ground-truth delay updates: applied to the truth matrix before the
  /// epoch's samples are ingested. delay_ms < 0 means the path is down.
  std::vector<stream::DelaySample> truth;
  /// Measurements the monitor ingests this epoch (noise and loss included).
  std::vector<stream::DelaySample> samples;
};

/// A recorded or generated delay trace over a fixed host set. The base
/// matrix is NOT stored — a trace perturbs a delay space the replayer
/// already has (the generators' contract: every referenced edge is
/// measured in the base matrix or explicitly transitioned by the trace).
struct DelayTrace {
  std::uint32_t hosts = 0;
  std::uint64_t seed = 0;     ///< generator seed (0 for recorded traces)
  std::string family;         ///< generator family, or "recorded"
  std::vector<TraceEpoch> epochs;

  std::size_t total_truth_events() const;
  std::size_t total_samples() const;

  /// Serializes to `path` in the versioned format above. Byte-identical
  /// for identical traces (the generator-determinism contract tests byte-
  /// compare two saves). Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  /// Loads and validates a trace. Throws TraceFormatError on any
  /// structural damage (magic, trailer, truncation, count overrun) and
  /// std::runtime_error on hard I/O errors.
  static DelayTrace load(const std::string& path);
};

/// Applies one epoch's truth stream to the ground-truth matrix: delay >= 0
/// sets the edge, delay < 0 transitions it to missing. Out-of-range and
/// self-pair events throw std::invalid_argument (a malformed trace must
/// not silently skew the ground truth it defines).
void apply_truth(const TraceEpoch& epoch, DelayMatrix& truth);

}  // namespace tiv::scenario
