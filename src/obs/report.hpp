// Metrics snapshot reporter — the JSONL emitter behind
// `outcore_monitor --metrics-out`.
//
// Each line is one self-contained JSON object:
//
//   {"seq":3,"elapsed_ms":3021,"label":"round-3",
//    "counters":{...},"gauges":{...},"histograms":{...}}
//
// where counters/histograms are *deltas since the previous line* and
// gauges are current levels. Lines come from report_now() (the monitor
// calls it per round).
//
// The reporter also renders the registry in Prometheus text exposition
// format (write_prometheus) — cumulative totals, `tiv_`-prefixed
// underscore-sanitized names, log2 histogram buckets as the standard
// cumulative `_bucket{le="..."}` series.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace tiv::obs {

namespace prom {
/// Prometheus metric-name sanitization: every character outside
/// [a-zA-Z0-9_:] (the registry uses dots) becomes '_', and the result
/// gains a "tiv_" prefix ("pool.chunks_claimed" -> "tiv_pool_chunks_claimed").
std::string metric_name(std::string_view name);
/// HELP-line escaping: backslash and newline per the exposition format.
std::string escape_help(std::string_view s);
}  // namespace prom

class SnapshotReporter {
 public:
  /// Emits to `out`, which must outlive the reporter. Callers that want a
  /// file own the ofstream themselves (same pattern as JsonArrayWriter).
  explicit SnapshotReporter(std::ostream& out);

  SnapshotReporter(const SnapshotReporter&) = delete;
  SnapshotReporter& operator=(const SnapshotReporter&) = delete;

  /// Emits one line now (thread-safe).
  void report_now(std::string_view label = {});

  /// Renders a fresh registry snapshot to `out` in Prometheus text
  /// exposition format (always cumulative — scrapers do their own rate()).
  /// Independent of the JSONL stream and its delta baseline.
  static void write_prometheus(std::ostream& out);
  /// Renders an existing snapshot (for tests and delta views).
  static void write_prometheus(std::ostream& out, const MetricsSnapshot& snap);

 private:
  std::ostream& out_;
  std::mutex mutex_;
  MetricsSnapshot last_;  ///< baseline for delta lines
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace tiv::obs
