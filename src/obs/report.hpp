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
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"

namespace tiv::obs {

class SnapshotReporter {
 public:
  /// Emits to `out`, which must outlive the reporter. Callers that want a
  /// file own the ofstream themselves (same pattern as JsonArrayWriter).
  explicit SnapshotReporter(std::ostream& out);

  SnapshotReporter(const SnapshotReporter&) = delete;
  SnapshotReporter& operator=(const SnapshotReporter&) = delete;

  /// Emits one line now (thread-safe).
  void report_now(std::string_view label = {});

 private:
  std::ostream& out_;
  std::mutex mutex_;
  MetricsSnapshot last_;  ///< baseline for delta lines
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace tiv::obs
