#include "scenario/score.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tiv::scenario {
namespace {

// Headline-threshold totals feed the obs registry so the live monitor and
// SnapshotReporter surface detection quality next to throughput
// (docs/OBSERVABILITY.md "Quality observatory"). Function-local statics:
// registration takes a mutex, the hot loop holds the references.
struct ScenarioMetrics {
  obs::Counter& epochs_scored;
  obs::Counter& edges_scored;
  obs::Counter& true_positives;
  obs::Counter& false_positives;
  obs::Counter& false_negatives;
  obs::Counter& onsets;
  obs::Counter& onsets_detected;
  obs::Counter& clears;
  obs::Counter& clears_confirmed;
  obs::Counter& detour_trials;
  obs::Counter& detour_wins;
  obs::Histogram& detect_lag_epochs;
  obs::Histogram& clear_lag_epochs;
};

ScenarioMetrics& metrics() {
  auto& reg = obs::MetricsRegistry::instance();
  static ScenarioMetrics m{
      reg.counter("scenario.epochs_scored"),
      reg.counter("scenario.edges_scored"),
      reg.counter("scenario.true_positives"),
      reg.counter("scenario.false_positives"),
      reg.counter("scenario.false_negatives"),
      reg.counter("scenario.onsets"),
      reg.counter("scenario.onsets_detected"),
      reg.counter("scenario.clears"),
      reg.counter("scenario.clears_confirmed"),
      reg.counter("scenario.detour_trials"),
      reg.counter("scenario.detour_wins"),
      reg.histogram("scenario.detect_lag_epochs"),
      reg.histogram("scenario.clear_lag_epochs"),
  };
  return m;
}

}  // namespace

double ClassificationCounts::precision() const {
  const auto pp = predicted_positive();
  return pp == 0 ? 0.0
                 : static_cast<double>(tp) / static_cast<double>(pp);
}

double ClassificationCounts::recall() const {
  const auto ap = actual_positive();
  return ap == 0 ? 0.0
                 : static_cast<double>(tp) / static_cast<double>(ap);
}

double ClassificationCounts::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

RatioAlertScore score_ratio_alert(std::span<const double> ratios,
                                  std::span<const double> severities,
                                  double worst_fraction, double threshold) {
  if (ratios.size() != severities.size()) {
    throw std::invalid_argument(
        "score_ratio_alert: ratios/severities size mismatch");
  }
  RatioAlertScore score;
  if (ratios.empty() || worst_fraction <= 0.0) return score;

  // Severity cut-off for membership in the worst set — the exact
  // computation evaluate_alert has always used, so delegating changes no
  // figure number.
  std::vector<double> sorted(severities.begin(), severities.end());
  const auto worst_count = std::min<std::size_t>(
      sorted.size(),
      static_cast<std::size_t>(
          std::ceil(worst_fraction * static_cast<double>(sorted.size()))));
  std::nth_element(sorted.begin(),
                   sorted.end() - static_cast<std::ptrdiff_t>(worst_count),
                   sorted.end());
  score.severity_cutoff = sorted[sorted.size() - worst_count];

  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const bool predicted =
        !std::isnan(ratios[i]) && ratios[i] < threshold;
    const bool actual = severities[i] >= score.severity_cutoff;
    score.counts.add(predicted, actual);
  }
  score.alert_fraction =
      static_cast<double>(score.counts.predicted_positive()) /
      static_cast<double>(ratios.size());
  return score;
}

double ThresholdQuality::mean_time_to_detect() const {
  return onsets_detected == 0
             ? 0.0
             : static_cast<double>(detect_lag_epochs) /
                   static_cast<double>(onsets_detected);
}

double ThresholdQuality::mean_time_to_clear() const {
  return clears_confirmed == 0
             ? 0.0
             : static_cast<double>(clear_lag_epochs) /
                   static_cast<double>(clears_confirmed);
}

double DetourQuality::win_rate() const {
  return trials == 0
             ? 0.0
             : static_cast<double>(wins) / static_cast<double>(trials);
}

QualityScorer::QualityScorer(HostId hosts, ScorerParams params)
    : n_(hosts), params_(std::move(params)) {
  std::vector<double> thresholds{params_.severity_threshold};
  thresholds.insert(thresholds.end(), params_.threshold_sweep.begin(),
                    params_.threshold_sweep.end());
  const std::size_t edge_count =
      static_cast<std::size_t>(n_) * (n_ > 0 ? n_ - 1 : 0) / 2;
  totals_.reserve(thresholds.size());
  edge_states_.reserve(thresholds.size());
  for (const double t : thresholds) {
    ThresholdQuality q;
    q.threshold = t;
    totals_.push_back(q);
    edge_states_.emplace_back(edge_count);
  }
}

void QualityScorer::observe_epoch(const DelayMatrix& truth,
                                  const SeverityMatrix& truth_sev,
                                  const DelayMatrix& monitor,
                                  const SeverityMatrix& monitor_sev) {
  if (truth.size() != n_ || monitor.size() != n_ || truth_sev.size() != n_ ||
      monitor_sev.size() != n_) {
    throw std::invalid_argument("QualityScorer: host-count mismatch");
  }
  obs::Span span("scenario-score");
  for (std::size_t t = 0; t < totals_.size(); ++t) {
    score_threshold(t, truth, truth_sev, monitor_sev);
  }
  if (params_.score_detour) score_detour(truth, truth_sev, monitor);
  ++epochs_;
  metrics().epochs_scored.increment();
}

void QualityScorer::score_threshold(std::size_t t, const DelayMatrix& truth,
                                    const SeverityMatrix& truth_sev,
                                    const SeverityMatrix& monitor_sev) {
  ThresholdQuality& q = totals_[t];
  auto& states = edge_states_[t];
  const auto thr = static_cast<float>(q.threshold);
  const auto epoch = static_cast<std::uint32_t>(epochs_);
  const bool headline = t == 0;
  ClassificationCounts epoch_counts;

  for (HostId a = 0; a < n_; ++a) {
    for (HostId b = a + 1; b < n_; ++b) {
      const bool measured = truth.has(a, b);
      const bool actual = measured && truth_sev.at(a, b) >= thr;
      const bool detected = monitor_sev.at(a, b) >= thr;
      // Classification universe: edges the ground truth defines a severity
      // for. A truly-down edge still runs the state machine (its violation
      // has factually cleared) but is not graded.
      if (measured) epoch_counts.add(detected, actual);

      EdgeState& st = states[edge_index(a, b)];
      if (actual && !st.truth_active) {
        ++q.onsets;
        st.onset_epoch = epoch;
        st.awaiting_detect = true;
        st.awaiting_clear = false;  // re-onset cancels the pending clear
        if (headline) metrics().onsets.increment();
      } else if (!actual && st.truth_active) {
        ++q.clears;
        if (headline) metrics().clears.increment();
        if (st.awaiting_detect) {
          ++q.onsets_missed;
          st.awaiting_detect = false;
        }
        if (detected) {
          st.awaiting_clear = true;
          st.clear_epoch = epoch;
        } else {
          ++q.clears_confirmed;  // alert already off: zero-lag clear
          if (headline) {
            metrics().clears_confirmed.increment();
            metrics().clear_lag_epochs.record(0);
          }
        }
      }
      st.truth_active = actual;

      if (st.awaiting_detect && detected) {
        const std::uint32_t lag = epoch - st.onset_epoch;
        q.detect_lag_epochs += lag;
        ++q.onsets_detected;
        st.awaiting_detect = false;
        if (headline) {
          metrics().onsets_detected.increment();
          metrics().detect_lag_epochs.record(lag);
        }
      }
      if (st.awaiting_clear && !detected) {
        const std::uint32_t lag = epoch - st.clear_epoch;
        q.clear_lag_epochs += lag;
        ++q.clears_confirmed;
        st.awaiting_clear = false;
        if (headline) {
          metrics().clears_confirmed.increment();
          metrics().clear_lag_epochs.record(lag);
        }
      }
      st.detect_active = detected;
    }
  }

  q.counts += epoch_counts;
  if (headline) {
    metrics().edges_scored.add(epoch_counts.total());
    metrics().true_positives.add(epoch_counts.tp);
    metrics().false_positives.add(epoch_counts.fp);
    metrics().false_negatives.add(epoch_counts.fn);
  }
}

void QualityScorer::score_detour(const DelayMatrix& truth,
                                 const SeverityMatrix& truth_sev,
                                 const DelayMatrix& monitor) {
  const auto thr = static_cast<float>(params_.severity_threshold);
  for (HostId a = 0; a < n_; ++a) {
    for (HostId b = a + 1; b < n_; ++b) {
      if (!truth.has(a, b) || truth_sev.at(a, b) < thr) continue;
      ++detour_.trials;
      metrics().detour_trials.increment();

      // The monitor picks the best one-hop relay from its own estimates —
      // exactly what a deployed detour router would have to do.
      HostId best = n_;
      float best_est = monitor.has(a, b) ? monitor.at(a, b)
                                         : std::numeric_limits<float>::max();
      for (HostId c = 0; c < n_; ++c) {
        if (c == a || c == b || !monitor.has(a, c) || !monitor.has(c, b)) {
          continue;
        }
        const float est = monitor.at(a, c) + monitor.at(c, b);
        if (est < best_est) {
          best_est = est;
          best = c;
        }
      }
      if (best == n_) continue;
      ++detour_.relay_found;

      // ...but the packets experience the ground truth.
      if (truth.has(a, best) && truth.has(best, b) &&
          truth.at(a, best) + truth.at(best, b) < truth.at(a, b)) {
        ++detour_.wins;
        metrics().detour_wins.increment();
      }
    }
  }
}

}  // namespace tiv::scenario
