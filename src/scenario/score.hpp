// Detection-quality scoring — the observatory's grading layer.
//
// Given, per epoch, the ground-truth matrix/severities a trace defines and
// the monitor's matrix/severities as maintained by the live pipeline, the
// scorer turns "how well did the monitor track reality" into regression-
// gateable numbers:
//
//   precision / recall / F1   per-epoch, per-edge binary classification of
//                             "severity >= threshold" against ground truth,
//                             summed over the trace (sweepable thresholds).
//   time-to-detect / -clear   per-edge onset state machines: epochs between
//                             a ground-truth violation appearing (clearing)
//                             and the monitor's detection following suit.
//   detour win rate           on each truly violating edge, would the relay
//                             the monitor's estimates pick actually beat
//                             the direct path in the ground truth? (the
//                             paper's operational payoff for detection).
//
// Every count is deterministic for a seeded trace — the severity kernel is
// bit-identical across thread counts and the generators bake noise into
// the trace — so test_scenario pins them exactly at bench_scenario's
// --quick configuration, and the bench's exit status holds precision,
// recall and detour win rate above absolute floors. Headline-threshold
// totals are also published as `scenario.*` registry metrics.
//
// score_ratio_alert is the shared binary-classification core the figure
// benches (20/21 via core::evaluate_alert, 24/25 directly) route through,
// so figure numbers and scenario scores cannot drift apart.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"

namespace tiv::scenario {

using core::SeverityMatrix;
using delayspace::DelayMatrix;
using delayspace::HostId;

/// Binary-classification tallies and the derived rates. The one
/// implementation of precision/recall/F1 in the repo.
struct ClassificationCounts {
  std::size_t tp = 0;  ///< predicted positive, truly positive
  std::size_t fp = 0;  ///< predicted positive, truly negative
  std::size_t fn = 0;  ///< predicted negative, truly positive
  std::size_t tn = 0;  ///< predicted negative, truly negative

  void add(bool predicted, bool actual) {
    if (predicted) {
      actual ? ++tp : ++fp;
    } else {
      actual ? ++fn : ++tn;
    }
  }
  ClassificationCounts& operator+=(const ClassificationCounts& o) {
    tp += o.tp;
    fp += o.fp;
    fn += o.fn;
    tn += o.tn;
    return *this;
  }

  std::size_t total() const { return tp + fp + fn + tn; }
  std::size_t predicted_positive() const { return tp + fp; }
  std::size_t actual_positive() const { return tp + fn; }

  /// tp / (tp + fp); 0 when nothing was predicted positive.
  double precision() const;
  /// tp / (tp + fn); 0 when nothing is truly positive.
  double recall() const;
  /// Harmonic mean of precision and recall; 0 when either is 0.
  double f1() const;
};

/// Result of grading a prediction-ratio alert (the Figs. 20/21/24/25
/// mechanism: alert when predicted/measured delay ratio < threshold)
/// against the "worst worst_fraction of edges by severity" positive set.
struct RatioAlertScore {
  ClassificationCounts counts;
  double alert_fraction = 0.0;   ///< predicted-positive share of all samples
  double severity_cutoff = 0.0;  ///< severity at the worst-fraction boundary
};

/// Grades ratio-based alerts: sample i is predicted positive when
/// ratios[i] is non-NaN and < threshold; truly positive when its severity
/// is within the worst `worst_fraction` of `severities` (cutoff = severity
/// of the ceil(worst_fraction * n)-th worst sample, inclusive). Spans must
/// be equal length. Empty input or worst_fraction <= 0 scores zero.
RatioAlertScore score_ratio_alert(std::span<const double> ratios,
                                  std::span<const double> severities,
                                  double worst_fraction, double threshold);

struct ScorerParams {
  /// Headline detection gate: an edge is "alerted" / "truly violating"
  /// when its (monitor / ground-truth) severity is >= this.
  double severity_threshold = 0.1;
  /// Additional thresholds to sweep (the headline is always included as
  /// thresholds()[0]; duplicates of it are kept as-is).
  std::vector<double> threshold_sweep;
  /// Score detour routing on truly violating edges (headline threshold).
  bool score_detour = true;
};

/// Quality totals at one severity threshold.
struct ThresholdQuality {
  double threshold = 0.0;
  /// Per-epoch, per-edge classification summed over the trace. The edge
  /// universe at each epoch is the edges measured in the ground-truth
  /// matrix (an edge that is truly down has no defined severity).
  ClassificationCounts counts;

  std::size_t onsets = 0;            ///< truth transitions quiet -> violating
  std::size_t onsets_detected = 0;   ///< detected before truth cleared/ended
  std::size_t onsets_missed = 0;     ///< truth cleared with no detection
  std::size_t clears = 0;            ///< truth transitions violating -> quiet
  std::size_t clears_confirmed = 0;  ///< monitor's alert dropped afterwards
  std::uint64_t detect_lag_epochs = 0;  ///< summed over detected onsets
  std::uint64_t clear_lag_epochs = 0;   ///< summed over confirmed clears

  /// Mean epochs from truth onset to detection (detected onsets only).
  double mean_time_to_detect() const;
  /// Mean epochs from truth clear to the alert dropping (confirmed only).
  double mean_time_to_clear() const;
};

/// Detour-routing quality on truly violating edges: the relay is chosen by
/// the MONITOR's estimates (what a deployed system would do), the win is
/// judged by the GROUND TRUTH (what the packets would experience).
struct DetourQuality {
  std::size_t trials = 0;       ///< (epoch, violating edge) opportunities
  std::size_t relay_found = 0;  ///< monitor had a two-leg candidate
  std::size_t wins = 0;         ///< chosen relay beats direct in truth
  double win_rate() const;      ///< wins / trials (0 if none)
};

/// Accumulates quality over a replayed trace, one observe_epoch call per
/// epoch. Publishes headline-threshold totals to the obs registry
/// ("scenario.*") and brackets each observation in a "scenario-score"
/// span. Single-threaded by design (scoring is O(n^2) per epoch and rides
/// the replay loop).
class QualityScorer {
 public:
  QualityScorer(HostId hosts, ScorerParams params = {});

  /// Grades one epoch. All four arguments must be of the construction-time
  /// host count; severities must correspond to their matrices.
  void observe_epoch(const DelayMatrix& truth, const SeverityMatrix& truth_sev,
                     const DelayMatrix& monitor,
                     const SeverityMatrix& monitor_sev);

  /// Per-threshold totals; [0] is the headline threshold.
  const std::vector<ThresholdQuality>& thresholds() const { return totals_; }
  const ThresholdQuality& headline() const { return totals_.front(); }
  const DetourQuality& detour() const { return detour_; }
  std::uint64_t epochs_scored() const { return epochs_; }

 private:
  /// Per-(threshold, edge) onset/clear state machine.
  struct EdgeState {
    std::uint32_t onset_epoch = 0;
    std::uint32_t clear_epoch = 0;
    bool truth_active = false;
    bool detect_active = false;
    bool awaiting_detect = false;
    bool awaiting_clear = false;
  };

  std::size_t edge_index(HostId a, HostId b) const {
    // Upper-triangle (a < b) linearization.
    return static_cast<std::size_t>(a) * n_ -
           static_cast<std::size_t>(a) * (a + 1) / 2 + (b - a - 1);
  }
  void score_threshold(std::size_t t, const DelayMatrix& truth,
                       const SeverityMatrix& truth_sev,
                       const SeverityMatrix& monitor_sev);
  void score_detour(const DelayMatrix& truth, const SeverityMatrix& truth_sev,
                    const DelayMatrix& monitor);

  HostId n_;
  ScorerParams params_;
  std::vector<ThresholdQuality> totals_;
  std::vector<std::vector<EdgeState>> edge_states_;  ///< [threshold][edge]
  DetourQuality detour_;
  std::uint64_t epochs_ = 0;
};

}  // namespace tiv::scenario
