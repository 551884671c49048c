#include "obs/report.hpp"

namespace tiv::obs {

SnapshotReporter::SnapshotReporter(std::ostream& out)
    : out_(out), start_time_(std::chrono::steady_clock::now()) {}

void SnapshotReporter::report_now(std::string_view label) {
  std::lock_guard<std::mutex> lk(mutex_);
  const MetricsSnapshot now = MetricsRegistry::instance().snapshot();
  const MetricsSnapshot line = now.delta_since(last_);
  last_ = now;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start_time_);
  out_ << "{\"seq\":" << seq_++ << ",\"elapsed_ms\":" << elapsed.count();
  if (!label.empty()) {
    out_ << ",\"label\":\"";
    for (char ch : label) {
      if (ch == '"' || ch == '\\') out_ << '\\';
      out_ << ch;
    }
    out_ << "\"";
  }
  out_ << ",";
  line.write_json_fields(out_);
  out_ << "}\n";
  out_.flush();
}

}  // namespace tiv::obs
