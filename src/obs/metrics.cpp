#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace tiv::obs {
namespace {

/// JSON string escaping for metric names (conservative: names are
/// dot-separated identifiers, but a stray quote must not break the doc).
void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out << '\\';
    out << ch;
  }
  out << '"';
}

void write_histogram_json(std::ostream& out, const HistogramSnapshot& h) {
  out << "{\"count\":" << h.count << ",\"sum\":" << h.sum
      << ",\"mean\":" << h.mean() << ",\"p50\":" << h.quantile(0.50)
      << ",\"p90\":" << h.quantile(0.90) << ",\"p99\":" << h.quantile(0.99)
      << ",\"buckets\":{";
  bool first = true;
  for (unsigned b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << Histogram::bucket_lower_bound(b) << "\":" << h.buckets[b];
  }
  out << "}}";
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value (1-based), then walk buckets to find it.
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < kBucketCount; ++b) {
    if (buckets[b] == 0) continue;
    const auto next = seen + buckets[b];
    if (static_cast<double>(next) >= rank) {
      const auto lo = static_cast<double>(Histogram::bucket_lower_bound(b));
      const double hi =
          b + 1 < kBucketCount
              ? static_cast<double>(Histogram::bucket_lower_bound(b + 1))
              : lo * 2.0;
      // Linear interpolation by the rank's position within the bucket.
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen = next;
  }
  return static_cast<double>(
      Histogram::bucket_lower_bound(kBucketCount - 1));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (const Cell& c : cells_) {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      const auto n = c.count[b].load(std::memory_order_relaxed);
      s.buckets[b] += n;
      s.count += n;
    }
    s.sum += c.sum.load(std::memory_order_relaxed);
  }
  return s;
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& base) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    const auto it = base.counters.find(name);
    const std::uint64_t b = it == base.counters.end() ? 0 : it->second;
    d.counters[name] = v >= b ? v - b : 0;
  }
  d.gauges = gauges;  // levels, not increments
  for (const auto& [name, h] : histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      d.histograms[name] = h;
      continue;
    }
    const HistogramSnapshot& bh = it->second;
    HistogramSnapshot dh;
    dh.count = h.count >= bh.count ? h.count - bh.count : 0;
    dh.sum = h.sum >= bh.sum ? h.sum - bh.sum : 0;
    for (std::size_t b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
      dh.buckets[b] =
          h.buckets[b] >= bh.buckets[b] ? h.buckets[b] - bh.buckets[b] : 0;
    }
    d.histograms[name] = dh;
  }
  return d;
}

void MetricsSnapshot::write_json_fields(std::ostream& out) const {
  out << "\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":" << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":" << v;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":";
    write_histogram_json(out, h);
  }
  out << "}";
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  out << "{";
  write_json_fields(out);
  out << "}";
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked so metrics registered from static-destruction-order-unlucky
  // contexts (thread_local teardown, other singletons) stay valid.
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  return s;
}

}  // namespace tiv::obs
