#include "scenario/replay.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tiv::scenario {
namespace {

obs::Counter& epochs_replayed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.epochs_replayed");
  return c;
}
obs::Counter& samples_replayed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.samples_replayed");
  return c;
}
obs::Counter& bit_mismatch_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("scenario.bit_mismatches");
  return c;
}

}  // namespace

ReplayDriver::ReplayDriver(const DelayMatrix& base, const DelayTrace& trace,
                           ReplayConfig config)
    : base_(base), trace_(trace), config_(std::move(config)) {
  if (trace.hosts != base.size()) {
    throw std::invalid_argument(
        "ReplayDriver: trace host count does not match base matrix");
  }
}

ReplayDriver::Result ReplayDriver::run(stream::SeverityEngine& engine,
                                       const EpochCallback& on_epoch) {
  const HostId n = base_.size();
  if (engine.size() != n) {
    throw std::invalid_argument(
        "ReplayDriver::run: engine host count does not match base matrix");
  }
  Result result;

  DelayMatrix truth = base_;
  stream::DelayStream live(base_, config_.estimator);
  SeverityMatrix monitor_sev(n);
  for (const auto& epoch : trace_.epochs) {
    obs::Span span("scenario-epoch");

    SeverityMatrix truth_sev;
    {
      obs::Span truth_span("scenario-truth");
      apply_truth(epoch, truth);
      truth_sev = core::TivAnalyzer(truth).all_severities();
    }

    stream::Epoch committed;
    {
      obs::Span ingest_span("scenario-ingest");
      live.ingest(epoch.samples);
      committed = live.commit_epoch();
      result.edges_recomputed +=
          engine.apply_epoch(live.matrix(), committed.dirty_hosts)
              .edges_recomputed;
    }

    // The engine's severities, read back in one pass, and — when
    // verifying — the edges whose float bits differ from a from-scratch
    // recompute (NaNs compare by payload, -0.0f != 0.0f: indistinguishable
    // bytes).
    engine.all_severities(monitor_sev);
    std::size_t mismatches = 0;
    if (config_.verify_bit_identity) {
      obs::Span verify_span("scenario-verify");
      const SeverityMatrix direct =
          core::TivAnalyzer(live.matrix()).all_severities();
      for (HostId a = 0; a < n; ++a) {
        for (HostId b = a + 1; b < n; ++b) {
          mismatches += std::bit_cast<std::uint32_t>(monitor_sev.at(a, b)) !=
                        std::bit_cast<std::uint32_t>(direct.at(a, b));
        }
      }
    }

    ++result.epochs;
    result.samples += epoch.samples.size();
    result.bit_mismatches += mismatches;
    epochs_replayed_counter().increment();
    samples_replayed_counter().add(epoch.samples.size());
    bit_mismatch_counter().add(mismatches);

    if (on_epoch) {
      on_epoch(EpochView{.epoch = result.epochs - 1,
                         .truth = truth,
                         .truth_severities = truth_sev,
                         .monitor = live.matrix(),
                         .monitor_severities = monitor_sev,
                         .bit_mismatches = mismatches,
                         .committed = committed});
    }
  }

  return result;
}

}  // namespace tiv::scenario
