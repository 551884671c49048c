#include "stream/severity_engine.hpp"

#include <stdexcept>
#include <string>

#include "core/severity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tiv::stream {
namespace {

obs::Counter& engine_epochs_applied() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.epochs_applied");
  return c;
}
obs::Counter& engine_edges_recomputed() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.edges_recomputed");
  return c;
}
obs::Counter& engine_edges_changed() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.edges_changed");
  return c;
}
obs::Histogram& engine_epoch_ns() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("engine.epoch_ns");
  return h;
}

}  // namespace

SeverityEngine::EpochStats SeverityEngine::apply_epoch(
    const DelayMatrix& matrix, std::span<const HostId> dirty_hosts) {
  if (matrix.size() != n_) {
    throw std::invalid_argument("SeverityEngine::apply_epoch: matrix size " +
                                std::to_string(matrix.size()) +
                                " differs from the engine's " +
                                std::to_string(n_));
  }
  core::check_dirty_hosts(dirty_hosts, n_, "SeverityEngine::apply_epoch");
  EpochStats stats;
  if (dirty_hosts.empty()) return stats;

  obs::Span span(epoch_span_);
  const auto t0 = obs::SpanTracer::now_ns();
  bool exact = false;
  {
    obs::Span screen_span("epoch-screen");
    screen_.begin(matrix, dirty_hosts);
    exact = diff_rows(matrix, dirty_hosts, screen_);
    if (exact) {
      screen_.flag(edges_);
    } else {
      edges_.reset(dirty_hosts, n_);
      edges_.flag_all();
    }
    stats.edges_changed = screen_.edges_changed();
  }
  update_rows(matrix, dirty_hosts, exact ? &screen_ : nullptr, edges_, stats);
  write_results(matrix, dirty_hosts, edges_, stats);

  ++epochs_applied_;
  engine_epochs_applied().increment();
  engine_edges_recomputed().add(stats.edges_recomputed);
  engine_edges_changed().add(stats.edges_changed);
  engine_epoch_ns().record(obs::SpanTracer::now_ns() - t0);
  return stats;
}

void SeverityEngine::severity_row(HostId a, std::span<float> out) {
  if (a >= n_) throw_host_out_of_range(a);
  if (out.size() != n_) {
    throw std::invalid_argument(
        "SeverityEngine::severity_row: output holds " +
        std::to_string(out.size()) + " floats, the engine has " +
        std::to_string(n_) + " hosts");
  }
  read_severity_row(a, out);
}

void SeverityEngine::throw_host_out_of_range(HostId host) const {
  throw std::out_of_range("SeverityEngine: host " + std::to_string(host) +
                          " outside the engine's " + std::to_string(n_) +
                          " hosts");
}

}  // namespace tiv::stream
