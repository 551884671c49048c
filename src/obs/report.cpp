#include "obs/report.hpp"

namespace tiv::obs {

namespace prom {

std::string metric_name(std::string_view name) {
  std::string out = "tiv_";
  out.reserve(out.size() + name.size());
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  return out;
}

std::string escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

}  // namespace prom

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

void SnapshotReporter::write_prometheus(std::ostream& out) {
  write_prometheus(out, MetricsRegistry::instance().snapshot());
}

void SnapshotReporter::write_prometheus(std::ostream& out,
                                        const MetricsSnapshot& snap) {
  for (const auto& [name, v] : snap.counters) {
    const std::string n = prom::metric_name(name);
    out << "# HELP " << n << " " << prom::escape_help(name) << "\n";
    out << "# TYPE " << n << " counter\n";
    out << n << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = prom::metric_name(name);
    out << "# HELP " << n << " " << prom::escape_help(name) << "\n";
    out << "# TYPE " << n << " gauge\n";
    out << n << " " << v << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom::metric_name(name);
    out << "# HELP " << n << " " << prom::escape_help(name) << "\n";
    out << "# TYPE " << n << " histogram\n";
    // Cumulative bucket series. Bucket b holds values in
    // [bucket_lower_bound(b), bucket_lower_bound(b+1)), so its inclusive
    // upper edge — the `le` label — is 2^b - 1 (0 for bucket 0). Empty
    // buckets are skipped: the cumulative count is unchanged there, and
    // the exposition format permits sparse bucket sets as long as +Inf
    // closes the series.
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
      if (h.buckets[b] == 0) continue;
      cum += h.buckets[b];
      const std::uint64_t le =
          b == 0 ? 0 : (Histogram::bucket_lower_bound(b) - 1) * 2 + 1;
      out << n << "_bucket{le=\"" << le << "\"} " << cum << "\n";
    }
    out << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << n << "_sum " << h.sum << "\n";
    out << n << "_count " << h.count << "\n";
  }
}

}  // namespace tiv::obs
